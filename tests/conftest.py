import hashlib
import os

import numpy as np
import pytest

from bgtriplex.features import STREAMS


def checksum(*arrays):
    """Short digest of the given arrays' bytes, taken as float64.

    Stable only for values that BLAS does not compute, such as integer
    counts or quantized pixels: float results of matrix products differ
    in their last bits between BLAS kernels, so pin those by value with
    a tolerance instead.
    """
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def forbidden_fork():
    """Stands in for ``os.fork`` where a test requires that nothing forks."""
    raise AssertionError("a process was forked")


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which pytest would treat as a stop."""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bundle(dataset, s, scope="spot"):
    """Spot ``s``'s (img, edge, nuc) ``scope`` tokens, as views into the
    slide's token stacks."""
    stacks = [dataset.token_stacks[(stream, scope)] for stream in STREAMS]
    return tuple(tokens[offsets[s]:offsets[s + 1]] for tokens, offsets in stacks)


def bundles(dataset, scope="spot"):
    """Every spot's ``scope`` tokens, in spot order, as ``bundle`` views."""
    return [bundle(dataset, s, scope) for s in range(dataset.n_spots)]


def token_stacks(spot, ctx=None):
    """``SpotDataset.token_stacks`` of per-spot (img, edge, nuc) arrays; the
    ctx scope shares the spot-scope entries unless ``ctx`` gives its own."""
    stacks = {}
    for k, stream in enumerate(STREAMS):
        for scope, arrays in (("spot", spot), ("ctx", ctx)):
            if arrays is None:
                stacks[(stream, scope)] = stacks[(stream, "spot")]
            else:
                tokens = [a[k] for a in arrays]
                stacks[(stream, scope)] = (np.concatenate(tokens),
                                           np.cumsum([0] + [len(t) for t in tokens]))
    return stacks

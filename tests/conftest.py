import hashlib

import numpy as np


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

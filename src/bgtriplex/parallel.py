"""Fork-join over a list: the one way this package runs work in parallel.

The work is Python code that holds the interpreter lock, so it runs in
processes forked from the caller. A forked child inherits the function and
everything it reads, so nothing is pickled on the way out; each child
pickles its results back over a pipe. The package starts no thread of its
own, so the fork copies no lock that another thread holds.
"""

from __future__ import annotations

import os
import pickle
import signal


# Where OpenBLAS, numpy's BLAS, reads its thread count from; the first set wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def default_workers():
    """Processes that fill the CPUs this process may run on: their number
    over the threads each process's BLAS starts. OpenBLAS starts one per
    CPU unless a ``BLAS_THREAD_VARS`` variable sets fewer, and processes
    whose BLAS threads outnumber the CPUs run slower than one process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def fork_map(fn, items, workers, caller_share):
    """[fn(item) for item in items], computed in up to ``workers`` processes.

    Items go out in round-robin shares, one per process, and each share is
    computed in order. With ``caller_share`` this process computes the
    first share and ``workers - 1`` forked children the others; without,
    ``workers`` children compute them all while this process waits. A child
    stops at its first exception and sends it back; the exception of the
    lowest-index failing item is raised here. Every child has been reaped
    before this returns or raises, and on an interrupt the children are
    killed first. With one share, or where the platform cannot fork,
    everything runs here.
    """
    items = list(items)
    n = min(workers, len(items))
    if n < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    shares = [range(w, len(items), n) for w in range(n)]
    own = shares.pop(0) if caller_share else range(0)
    results, failures, children = {}, [], []
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(fn, items, share, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, share, os.fdopen(read_fd, "rb")))
        failures += _run(fn, items, own, results)
        for pid, share, pipe in children:
            payload = pipe.read()
            if not payload:
                failures.append((share[0], ChildProcessError(
                    f"worker process {pid} exited without sending its results")))
                continue
            done, failed = pickle.loads(payload)
            results.update(done)
            failures += failed
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, _, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[i] for i in range(len(items))]


def _run(fn, items, share, results):
    """Compute ``share`` in order into ``results``; [(index, exception)] of
    the first failure, or []."""
    for i in share:
        try:
            results[i] = fn(items[i])
        except Exception as exc:  # sent back to the caller, which raises it
            return [(i, exc)]
    return []


def _child(fn, items, share, read_fd, write_fd):
    """A forked child's whole life: it never returns into the caller's stack,
    and ``os._exit`` skips interpreter teardown and the flush of stdio
    buffers copied from the caller."""
    status = 1
    try:
        os.close(read_fd)
        results = {}
        failed = _run(fn, items, share, results)
        payload = pickle.dumps((results, failed))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)

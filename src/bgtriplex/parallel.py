"""Forked partners and fork-join over a list: the ways this package runs
work in parallel.

The work is Python code that holds the interpreter lock, so it runs in
processes forked from the caller. A forked child inherits the function and
everything it reads, so only each call's arguments are pickled on the way
out; the child pickles its results back over a pipe. The package starts no
thread of its own, so the fork copies no lock that another thread holds.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal


# Where OpenBLAS, numpy's BLAS, reads its thread count from; the first set wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# This process's ends of the pipes to its live partners. A partner forked
# later closes its copies, so each partner reads the end of its requests
# once its caller closes them or exits.
_PIPES = set()


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


class Partner:
    """Calls of ``fn``, one at a time, in a process forked from this one.

    ``send(*args)`` starts ``fn(*args)`` in the partner and returns at once;
    ``receive()`` waits for its result and raises the exception it raised,
    or ChildProcessError if the partner died. The partner inherits ``fn``
    and everything it reads as they stood at the fork; only arguments and
    results cross the pipes. Use it as a context manager: on leaving, the
    partner reads the end of its requests and exits, or, if an exception is
    leaving, is killed first; either way it has been reaped. With ``fork``
    false, or where the platform cannot fork, ``receive`` makes the call in
    this process.
    """

    def __init__(self, fn, fork=True):
        self.fn = fn
        self.fork = fork and hasattr(os, "fork")
        self.pid = None

    def __enter__(self):
        if not self.fork:
            return self
        requests, replies = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in requests + replies:
                os.close(fd)
            raise
        if pid == 0:
            _serve(self.fn, requests, replies)
        os.close(requests[0])
        os.close(replies[1])
        self.pid = pid
        self._requests = os.fdopen(requests[1], "wb", buffering=0)
        self._replies = os.fdopen(replies[0], "rb")
        _PIPES.update((self._requests, self._replies))
        return self

    def send(self, *args):
        if self.pid is None:
            self._args = args
        else:
            _write(self._requests, args)

    def end(self):
        """Send no more calls: the partner exits once it has answered the
        calls sent, while this process goes on."""
        if self.pid is not None:
            _PIPES.discard(self._requests)
            self._requests.close()

    def receive(self):
        if self.pid is None:
            return self.fn(*self._args)
        reply = _read(self._replies)
        if reply is None:
            raise ChildProcessError(
                f"worker process {self.pid} exited without sending its results")
        ok, value = reply
        if not ok:
            raise value
        return value

    def __exit__(self, exc_type, *_):
        if self.pid is not None:
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
            for pipe in (self._requests, self._replies):
                _PIPES.discard(pipe)
                pipe.close()
            os.waitpid(self.pid, 0)
        return False


def _write(pipe, message):
    data = pickle.dumps(message)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[pipe.write(view):]


def _read(pipe):
    """The next message, or None at the end of the pipe."""
    header = pipe.read(8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    data = pipe.read(size)
    return pickle.loads(data) if len(data) == size else None


def _serve(fn, requests, replies):
    """A partner's whole life: it answers each request with (True, result)
    or (False, exception) until the requests end. It never returns into the
    caller's stack, and ``os._exit`` skips interpreter teardown and the
    flush of stdio buffers copied from the caller."""
    status = 1
    try:
        while _PIPES:
            _PIPES.pop().close()
        os.close(requests[1])
        os.close(replies[0])
        with os.fdopen(requests[0], "rb") as inbox, \
                os.fdopen(replies[1], "wb", buffering=0) as outbox:
            while (args := _read(inbox)) is not None:
                try:
                    reply = (True, fn(*args))
                except Exception as exc:  # sent back to the caller, which raises it
                    reply = (False, exc)
                _write(outbox, reply)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn, items, workers, caller_share):
    """[fn(item) for item in items], computed in up to ``workers`` processes.

    Items go out in round-robin shares, one per process, and each share is
    computed in order. With ``caller_share`` this process computes the
    first share and ``workers - 1`` forked partners the others; without,
    ``workers`` partners compute them all while this process waits. A
    process stops at its first exception; the exception of the
    lowest-index failing item is raised here. Every partner has been reaped
    before this returns or raises, and on an interrupt the partners are
    killed first. With one share, or where the platform cannot fork,
    everything runs here.
    """
    items = list(items)
    n = min(workers, len(items))
    if n < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    shares = [range(w, len(items), n) for w in range(n)]
    own = shares.pop(0) if caller_share else range(0)
    run = functools.partial(_run, fn, items)
    with contextlib.ExitStack() as stack:
        partners = [stack.enter_context(Partner(run)) for _ in shares]
        for partner, share in zip(partners, shares):
            partner.send(share)
            partner.end()
        outcomes = [run(own)] + [partner.receive() for partner in partners]
    results, failures = {}, []
    for done, failed in outcomes:
        results.update(done)
        failures += failed
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[i] for i in range(len(items))]


def _run(fn, items, share):
    """({index: result}, [(index, exception)]) of computing ``share`` in
    order; the list holds the first failure, if any."""
    results = {}
    for i in share:
        try:
            results[i] = fn(items[i])
        except Exception as exc:  # raised by fork_map once every share is in
            return results, [(i, exc)]
    return results, []

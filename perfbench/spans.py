"""Span recorder and module-attribute wrappers for the traced benchmark run.

The traced run times the program from outside: every public function of
each ``bgtriplex`` layer module is replaced by a timing wrapper, in its
own module and in every other module that bound it with ``from ...
import``. ``Tensor.backward`` and the callbacks of the ``bgt`` commands
are wrapped the same way. ``Instrumentation`` puts every attribute back
on exit.

Spans nest on a thread-local stack, so spans opened in cross-validation
fold threads are parented within their own thread. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

LAYERS = ("autodiff", "features", "data", "model", "training", "metrics", "checkpoint", "cli")

# autodiff functions that add one node to the operation graph.
AUTODIFF_OPS = ("matmul", "matmul_nt", "transpose", "add", "sub", "mul", "softmax_rows",
                "layer_norm", "concat_cols", "concat_rows", "mean_rows", "mean_all", "row",
                "compose")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def current_rss_mb():
    """Resident set size of this process now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class SpanRecorder:
    """Per-name call counts, inclusive and self seconds, plus free counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}      # name -> [calls, inclusive_s, self_s]
        self.counters = {}   # name -> number
        self.roots = []      # (thread ident, inclusive_s, self_s) of spans with no parent in their thread
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self):
        """The calling thread's open spans, innermost last, as [name, child_s]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self.stack()
        frame = [name, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if not stack:
                    self.roots.append((threading.get_ident(), duration, duration - frame[1]))

    def add(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _fuse_probe(recorder, args, kwargs):
    global_out = args[2] if len(args) > 2 else kwargs["global_out"]
    recorder.add("model.fuse.query_rows", global_out.tokens.shape[0])


def _slide_forward_probe(recorder, args, kwargs):
    if any(frame[0] == "training.train" for frame in recorder.stack()):
        recorder.add("training.step_forwards", 1)
    before = current_rss_mb()
    return lambda: recorder.maximum("model.slide_forward.rss_growth_mb",
                                    current_rss_mb() - before)


# Called outside the span, before the call; a returned callable runs after it.
PROBES = {"model.fuse": _fuse_probe, "model.slide_forward": _slide_forward_probe}


def _wrap(recorder, name, fn):
    probe = PROBES.get(name)
    if probe is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = probe(recorder, args, kwargs)
            try:
                return recorder.call(name, fn, args, kwargs)
            finally:
                if after is not None:
                    after()
    return wrapper


def layer_functions():
    """(function, span name) for every public function defined in a layer module."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"bgtriplex.{layer}")
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found.append((value, f"{layer}.{attr}"))
    return found


def program_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "bgtriplex" or name.startswith("bgtriplex."))]


class Instrumentation:
    """Installs the wrappers on enter and restores every replaced attribute on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        functions = layer_functions()
        wrappers = {id(fn): (fn, _wrap(self.recorder, name, fn)) for fn, name in functions}
        for module in program_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, attr, hit[1])
        from bgtriplex import autodiff, cli

        self._replace(autodiff.Tensor, "backward",
                      _wrap(self.recorder, "autodiff.backward", autodiff.Tensor.backward))
        for command_name, command in cli.main.commands.items():
            self._replace(command, "callback",
                          _wrap(self.recorder, f"cli.{command_name}", command.callback))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


def per_layer_metrics(names, recorder, reps, traced_wall, slowdown, main_thread):
    """Value of every named per-layer metric; counts and seconds are per repetition.

    ``traced_wall`` is the summed time of the traced repetitions and
    ``slowdown`` their median time over the median untraced repetition.
    """
    reps = max(reps, 1)
    adam_calls = recorder.calls("training.adam_step")
    cv_wall = recorder.inclusive_s("training.cross_validate")
    main_busy = sum(d for ident, d, _ in recorder.roots if ident == main_thread)
    fold_busy = sum(d for ident, d, _ in recorder.roots if ident != main_thread)
    # The top-level spans of the threads that do the work: the fold threads
    # when there are any, since the benchmark's thread then only waits.
    working = ([r for r in recorder.roots if r[0] != main_thread]
               or [r for r in recorder.roots if r[0] == main_thread])
    working_s = sum(d for _, d, _ in working)
    query_rows = recorder.counters.get("model.fuse.query_rows", 0)
    derived = {
        "autodiff.ops": sum(recorder.calls(f"autodiff.{op}") for op in AUTODIFF_OPS) / reps,
        "model.fuse.query_rows": query_rows / reps,
        "model.fuse.useful_row_frac": (recorder.calls("model.fuse") / query_rows
                                       if query_rows else 0.0),
        "model.slide_forward.rss_growth_mb":
            recorder.counters.get("model.slide_forward.rss_growth_mb", 0.0),
        "training.forwards_per_step": (recorder.counters.get("training.step_forwards", 0)
                                       / adam_calls if adam_calls else 0.0),
        "training.cv.fold_overlap": fold_busy / cv_wall if cv_wall else 0.0,
        "trace.overhead_frac": slowdown - 1.0,
        "trace.self_sum_frac": main_busy / traced_wall,
        "trace.child_cover_frac": (sum(d - own for _, d, own in working) / working_s
                                   if working_s else 0.0),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = recorder.calls(span) / reps
        elif kind == "s":
            values[name] = recorder.inclusive_s(span) / reps
        elif kind == "self_s":
            values[name] = recorder.self_s(span) / reps
        else:
            raise KeyError(f"no rule derives per-layer metric {name!r}")
    return values

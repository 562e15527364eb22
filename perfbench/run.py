#!/usr/bin/env python3
"""Benchmark of the bgtriplex program, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload in this process. The program is
imported from ``src/`` of the checkout. With ``--trace 0`` it reports
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it reports
every per-layer metric instead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The second form runs every workload, each in a fresh
process, and prints all of their metrics. See perfbench/README.md.
"""

import os

# One BLAS thread per process keeps the two CV fold threads within the
# machine's cores. It must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 6
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import bgtriplex from this checkout's src/, never from anywhere else."""
    init = SRC / "bgtriplex" / "__init__.py"
    if not init.is_file():
        fail(f"no program source at {init}")
    sys.path.insert(0, str(SRC))
    import bgtriplex

    if Path(bgtriplex.__file__).resolve() != init.resolve():
        fail(f"imported bgtriplex from {bgtriplex.__file__}, not {init}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path}")
    return json.loads(path.read_text(encoding="utf-8"))


@contextlib.contextmanager
def workspace():
    """A fresh directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def git_rev():
    """The checked-out commit, or "unknown" outside a git repository.

    Without a ``.git`` of its own git is not run: it would search the
    checkout's parent directories for a repository.
    """
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def probe_setup(workload, seed, workdir):
    """Seconds from starting a fresh process until the workload is set up in ``workdir``."""
    from workloads import to_spec

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           json.dumps(to_spec(workload)), "--seed", str(seed), "--workdir", str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited with code {code}")
    return elapsed


class Measurement:
    def __init__(self):
        self.times = []       # seconds of every repetition
        self.ok_times = []    # seconds of the repetitions that passed their check
        self.attempted = 0
        self.failed = 0
        self.first_peak_mb = None  # peak RSS of the process after set-up and one repetition


def measure(workload, state, seconds=None, reps=None, around=contextlib.nullcontext):
    """Run timed repetitions until ``seconds`` of them have passed, or ``reps`` of them.

    Each repetition runs inside ``around()``; its check runs after, untimed.
    """
    m = Measurement()
    while len(m.times) < reps if reps is not None else (not m.times or sum(m.times) < seconds):
        result, ok = None, True
        # Start every repetition from the same collector state: the autograd
        # graph is cyclic, so collections would otherwise land at random reps.
        gc.collect()
        with around():
            start = time.perf_counter()
            try:
                result = workload.rep(state)
            except (Exception, SystemExit):
                traceback.print_exc()
                ok = False
            elapsed = time.perf_counter() - start
        if m.first_peak_mb is None:
            m.first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if ok:
            try:
                ok = workload.check(state, result)
            except Exception:
                traceback.print_exc()
                ok = False
        n = workload.ops_per_rep(state)
        m.times.append(elapsed)
        m.attempted += n
        if ok:
            m.ok_times.append(elapsed)
        else:
            m.failed += n
    return m


def end_to_end(workload, state, seconds):
    """The end-to-end metrics, plus the ones only this workload has.

    Peak memory is taken after the first repetition, as a process that
    runs the workload once would see it; later repetitions inherit a
    fragmented heap. Throughput comes from the fastest repetition: a
    shared host's CPU switches between speed modes up to 2x apart for
    seconds at a time, and the fastest repetition is the one they slowed
    least.
    """
    m = measure(workload, state, seconds=seconds)
    best_s = min(m.ok_times or m.times)
    metrics = {
        "peak_rss_mb": m.first_peak_mb,
        "ok_frac": (m.attempted - m.failed) / m.attempted,
        "spots_per_s": workload.spots_per_rep(state) / best_s,
    }
    own = {"failed_frac": (m.failed / m.attempted, "frac"),
           **workload.own_metrics(state, best_s)}
    return m, metrics, own


def per_layer(workload, state, seconds, names):
    """A traced pass, then an untraced pass with as many repetitions."""
    from spans import Instrumentation, SpanRecorder, per_layer_metrics

    recorder = SpanRecorder()
    traced = measure(workload, state, seconds=seconds,
                     around=lambda: Instrumentation(recorder))
    plain = measure(workload, state, reps=len(traced.times))
    metrics = per_layer_metrics(names, recorder, len(traced.times), sum(traced.times),
                                statistics.median(traced.times) / statistics.median(plain.times),
                                threading.get_ident())
    both = Measurement()
    both.times = traced.times + plain.times
    both.attempted = traced.attempted + plain.attempted
    both.failed = traced.failed + plain.failed
    return both, metrics, {}


def run_workload(name, seed, seconds, trace, setup_runs=SETUP_RUNS, workload=None):
    """Set up and measure one workload; returns (details, result)."""
    from workloads import WORKLOADS

    spec = load_spec()
    workload = workload or WORKLOADS[name]
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    setup_times = []
    with workspace() as workdir:
        # Every set-up writes the same files into ``workdir``; this first one
        # creates them, so that each timed set-up overwrites them in place.
        # Creating thousands of small files costs several times more than
        # overwriting them, and far more variably, on a virtual disk.
        state = workload.setup(seed, workdir)
        if not trace:
            setup_times += [probe_setup(workload, seed, workdir)
                            for _ in range(setup_runs // 2)]
        if trace:
            m, values, own = per_layer(workload, state, seconds, list(units))
        else:
            m, values, own = end_to_end(workload, state, seconds)
            # The other half of the set-up samples come after the timed
            # repetitions, so that together they span the run, not a few
            # seconds of it in one of the host's speed modes.
            setup_times += [probe_setup(workload, seed, workdir)
                            for _ in range(setup_runs - setup_runs // 2)]
            values["setup_s"] = statistics.median(setup_times)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), "reps": len(m.times), "rep_s": m.times,
        "setup_runs_s": setup_times,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in own.items()},
    }
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return details, result


def print_result(details, result, prefix=""):
    print(prefix + json.dumps(details, sort_keys=True))
    for name, metric in {**details["workload_metrics"], **result["metrics"]}.items():
        print(f"{prefix}{name} {metric['value']!r} {metric['unit']}")


def run_all(seed, seconds, trace):
    """Every workload in a fresh process of its own; prints all metrics."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SPEC", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, from_spec

    if args.setup_probe:
        from_spec(json.loads(args.setup_probe)).setup(args.seed, args.workdir)
        print("ready", flush=True)
        return 0
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        run_all(args.seed, seconds, args.trace)
        return 0
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    details, result = run_workload(args.workload, args.seed, seconds, args.trace)
    print_result(details, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

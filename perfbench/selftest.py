"""Tests of the benchmark itself, on tiny slides.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

TINY = {
    "predict": workloads.Predict(rows=3, cols=3),
    "train": workloads.Train(rows=3, cols=3),
    "cv": workloads.CrossValidate(rows=3, cols=3),
}


def tiny_run(kind, trace, seed=3):
    _, result = run.run_workload(f"tiny_{kind}", seed, 0.0, trace, setup_runs=1,
                                 workload=TINY[kind])
    return result


def wrapped_attributes():
    """Every attribute the instrumentation may replace, by identity."""
    from bgtriplex import autodiff, cli

    spans.layer_functions()
    found = {(m.__name__, k): v for m in spans.program_modules() for k, v in vars(m).items()}
    found[("Tensor", "backward")] = autodiff.Tensor.__dict__["backward"]
    for name, command in cli.main.commands.items():
        found[("command", name)] = command.callback
    return found


def test_benchmark_json_follows_its_contract():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_metric_and_workload_names_are_well_formed_and_unique():
    spec = run.load_spec()
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_smoke_run(kind, trace):
    result = tiny_run(kind, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in section]
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_per_layer_counts_repeat_exactly(kind):
    counts = []
    for _ in range(2):
        metrics = tiny_run(kind, trace=1)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.ops"] > 0


@pytest.mark.parametrize("tolerance, failed", [(workloads.CHECK_TOL, 0), (-1.0, 3)])
def test_predict_check_fails_every_repetition_when_the_first_is_wrong(
        monkeypatch, tolerance, failed):
    # A negative tolerance rejects every row, so the first invocation's
    # output is wrong; the byte-identical repeats must fail with it.
    monkeypatch.setattr(workloads, "CHECK_TOL", tolerance)
    with run.workspace() as workdir:
        state = TINY["predict"].setup(3, workdir)
        m = run.measure(TINY["predict"], state, reps=3)
    assert m.attempted == 3 and m.failed == failed


def test_traced_run_restores_every_wrapped_attribute():
    before = wrapped_attributes()
    recorder = spans.SpanRecorder()
    with spans.Instrumentation(recorder):
        during = wrapped_attributes()
    changed = {key for key in before if during[key] is not before[key]}
    assert {("bgtriplex.autodiff", "matmul"), ("bgtriplex.features", "matmul"),
            ("bgtriplex.model", "fuse"), ("Tensor", "backward"),
            ("command", "predict")} <= changed
    after = wrapped_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tiny_run("train", trace=1)
    after_run = wrapped_attributes()
    assert all(after_run[key] is before[key] for key in before)


def test_restores_after_an_exception():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with spans.Instrumentation(spans.SpanRecorder()):
            raise RuntimeError("inside the traced region")
    after = wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_self_time_is_inclusive_minus_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))

    def outer():
        recorder.call("inner", lambda: None, (), {})
        recorder.call("inner", lambda: None, (), {})

    recorder.call("outer", outer, (), {})
    assert recorder.stats["outer"] == [1, 10.0, 7.0]
    assert recorder.stats["inner"] == [2, 3.0, 3.0]
    assert recorder.roots == [(threading.get_ident(), 10.0, 7.0)]


def test_spans_of_another_thread_are_not_children():
    recorder = spans.SpanRecorder()
    started = threading.Event()

    def long_main_span():
        started.set()
        time.sleep(0.3)

    def worker():
        started.wait(5)
        for _ in range(3):
            recorder.call("worker", time.sleep, (0.05,), {})

    thread = threading.Thread(target=worker)
    thread.start()
    recorder.call("main", long_main_span, (), {})
    thread.join(10)
    assert not thread.is_alive()
    # A shared stack would count the worker's 0.15 s as children of "main".
    assert recorder.stats["main"][2] > 0.25
    assert recorder.stats["worker"][0] == 3
    assert len(recorder.roots) == 4


def test_exits_nonzero_without_program_source():
    with run.workspace() as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        (bare / "perfbench").mkdir()
        for path in (run.ROOT / "perfbench").iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cv_3x8x8",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (bare / ".perfbench_work").exists()


def test_derived_seeds_differ_per_input_and_repeat():
    assert workloads.derive(1, "synth") == workloads.derive(1, "synth")
    assert len({workloads.derive(s, label) for s in (1, 2)
                for label in ("synth", "init", "shuffle")}) == 6
    assert json.loads(json.dumps(workloads.to_spec(TINY["cv"]))) == workloads.to_spec(TINY["cv"])

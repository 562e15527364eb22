"""The fork-join helper: results in item order, failures raised here, and no
process left behind."""

import os
import signal
import time

import pytest
from conftest import forbidden_fork

from bgtriplex.parallel import BLAS_THREAD_VARS, default_workers, fork_map


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which pytest would treat as a stop."""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square_with_pid(x):
    return x * x, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("caller_share", [True, False])
def test_results_come_back_in_item_order(workers, caller_share):
    out = fork_map(square_with_pid, range(7), workers, caller_share)
    assert [value for value, _ in out] == [x * x for x in range(7)]
    pids = [pid for _, pid in out]
    n = min(workers, 7)
    # round-robin shares: item i is computed by process i mod n
    assert all(pids[i] == pids[i % n] for i in range(7))
    assert len(set(pids)) == n
    assert (os.getpid() in pids) == (caller_share or n == 1)
    assert_no_child_left()


@pytest.mark.parametrize("failing, raised", [({0}, 0), ({1}, 1), ({2, 5}, 2), ({3, 1}, 1),
                                             ({4, 0}, 0)])
@pytest.mark.parametrize("caller_share", [True, False])
def test_the_lowest_failing_item_is_raised_and_no_child_is_left(failing, raised, caller_share):
    def fn(x):
        if x in failing:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {raised}$"):
        fork_map(fn, range(6), 3, caller_share)
    assert_no_child_left()


def test_a_child_that_dies_is_an_error_here():
    def fn(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match="without sending its results"):
        fork_map(fn, range(4), 2, caller_share=True)
    assert_no_child_left()


def test_an_interrupt_here_kills_and_reaps_the_children():
    def fn(x):
        if x == 0:
            raise Interrupt
        time.sleep(60)
        return x

    start = time.monotonic()
    with pytest.raises(Interrupt):
        fork_map(fn, range(3), 3, caller_share=True)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_children_flush_no_copied_buffer(tmp_path):
    # a child that ran interpreter teardown would write the caller's
    # unflushed buffer a second time
    path = tmp_path / "log.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("written once\n")
        assert fork_map(lambda x: x, range(4), 4, caller_share=False) == list(range(4))
    assert path.read_text(encoding="utf-8") == "written once\n"


@pytest.mark.parametrize("workers, items", [(1, 5), (4, 1)])
def test_one_share_starts_no_process(monkeypatch, workers, items):
    monkeypatch.setattr(os, "fork", forbidden_fork)
    assert fork_map(square_with_pid, range(items), workers, caller_share=False) == [
        (x * x, os.getpid()) for x in range(items)]


def test_without_fork_everything_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(square_with_pid, range(5), 3, caller_share=False) == [
        (x * x, os.getpid()) for x in range(5)]


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 2, 1), ({}, 8, 1),                            # BLAS starts a thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2), ({"OMP_NUM_THREADS": "1"}, 8, 8),
    ({"GOTO_NUM_THREADS": "2"}, 8, 4), ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "16"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "0"}, 4, 1)])
def test_default_workers_fill_the_cpus_with_blas_threads(monkeypatch, env, cpus, expected):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert default_workers() == expected
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert default_workers() == expected

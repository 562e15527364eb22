"""The forked partner and the fork-join helper: results in order, failures
raised here, and no process left behind."""

import os
import select
import signal
import time

import pytest
from conftest import Interrupt, assert_no_child_left, deadline, forbidden_fork

from bgtriplex.parallel import BLAS_THREAD_VARS, Partner, default_workers, fork_map


def square_with_pid(x):
    return x * x, os.getpid()


def scaled_with_pid(x, factor):
    if x < 0:
        raise ValueError(f"negative {x}")
    return x * factor, os.getpid()


def test_a_partner_answers_each_call_in_its_own_process():
    with Partner(scaled_with_pid) as partner:
        for x in range(4):
            partner.send(x, 3)
            value, pid = partner.receive()
            assert value == 3 * x and pid == partner.pid != os.getpid()
    assert_no_child_left()


def test_a_partner_raises_its_exception_here_and_serves_on():
    with Partner(scaled_with_pid) as partner:
        partner.send(-1, 2)
        with pytest.raises(ValueError, match="^negative -1$"):
            partner.receive()
        partner.send(5, 2)
        assert partner.receive()[0] == 10
    assert_no_child_left()


def test_select_sees_a_result_not_yet_received():
    # results are read unbuffered: receiving the first leaves the second,
    # already written, in the pipe
    with Partner(scaled_with_pid) as partner:
        partner.send(1, 2)
        partner.send(2, 2)
        time.sleep(0.2)
        assert partner.receive()[0] == 2
        assert select.select([partner], [], [], 20)[0] == [partner]
        assert partner.receive()[0] == 4
    assert_no_child_left()


def test_a_partner_that_dies_is_an_error_here():
    with pytest.raises(ChildProcessError, match="without sending its results"):
        with Partner(lambda: os.kill(os.getpid(), signal.SIGKILL)) as partner:
            partner.send()
            partner.receive()
    assert_no_child_left()


def test_a_partner_left_first_is_not_held_by_a_later_one():
    # the second partner closes its copies of the first one's pipes, so the
    # first reads the end of its requests once this process closes them
    first = Partner(scaled_with_pid).__enter__()
    second = Partner(scaled_with_pid).__enter__()
    try:
        with deadline(20, "the first partner did not exit"):
            first.__exit__(None, None, None)
    finally:
        second.__exit__(None, None, None)
    assert_no_child_left()


def test_an_ended_partner_exits_once_it_has_answered():
    with Partner(scaled_with_pid) as partner:
        partner.send(3, 2)
        partner.end()
        with deadline(20, "the partner did not exit"):
            # waits for the exit without reaping, which the with block does
            os.waitid(os.P_PID, partner.pid, os.WEXITED | os.WNOWAIT)
        assert partner.receive()[0] == 6
    assert_no_child_left()


@pytest.mark.parametrize("fork", [True, False])
def test_without_fork_a_partner_calls_here(monkeypatch, fork):
    if fork:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", forbidden_fork)
    with Partner(scaled_with_pid, fork=fork) as partner:
        partner.send(4, 2)
        assert partner.receive() == (8, os.getpid())


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 9])
def test_results_come_back_in_item_order(workers):
    out = fork_map(square_with_pid, range(7), workers)
    assert [value for value, _ in out] == [x * x for x in range(7)]
    pids = [pid for _, pid in out]
    n = min(workers, 7)
    # round-robin shares: item i is computed by process i mod n, and this
    # process computes the first share
    assert all(pids[i] == pids[i % n] for i in range(7))
    assert len(set(pids)) == n
    assert pids[0] == os.getpid()
    assert_no_child_left()


@pytest.mark.parametrize("failing, raised", [({0}, 0), ({1}, 1), ({2, 5}, 2), ({3, 1}, 1),
                                             ({4, 0}, 0)])
def test_the_lowest_failing_item_is_raised_and_no_child_is_left(failing, raised):
    def fn(x):
        if x in failing:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {raised}$"):
        fork_map(fn, range(6), 3)
    assert_no_child_left()


def test_a_child_that_dies_is_an_error_here():
    def fn(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match="without sending its results"):
        fork_map(fn, range(4), 2)
    assert_no_child_left()


def test_an_interrupt_here_kills_and_reaps_the_children():
    def fn(x):
        if x == 0:
            raise Interrupt
        time.sleep(60)
        return x

    start = time.monotonic()
    with pytest.raises(Interrupt):
        fork_map(fn, range(3), 3)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_children_flush_no_copied_buffer(tmp_path):
    # a child that ran interpreter teardown would write the caller's
    # unflushed buffer a second time
    path = tmp_path / "log.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("written once\n")
        assert fork_map(lambda x: x, range(4), 4) == list(range(4))
    assert path.read_text(encoding="utf-8") == "written once\n"


@pytest.mark.parametrize("workers, items", [(1, 5), (4, 1)])
def test_one_share_starts_no_process(monkeypatch, workers, items):
    monkeypatch.setattr(os, "fork", forbidden_fork)
    assert fork_map(square_with_pid, range(items), workers) == [
        (x * x, os.getpid()) for x in range(items)]


def test_without_fork_everything_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(square_with_pid, range(5), 3) == [
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

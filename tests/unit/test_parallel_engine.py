"""Unit tests for the parallel experiment engine (`experiments.parallel`)."""

import functools
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    Progress,
    WorkerError,
    run_many,
    run_many_report,
)
from repro.experiments import sweeps


# Runners must live at module scope so worker processes can unpickle them.

def _square(task):
    return task * task


def _pid_of(task):
    return os.getpid()


def _boom_on_three(task):
    if task == 3:
        raise ValueError("boom")
    return task


def _kill_self(task):
    os._exit(13)  # hard crash: the pool loses the worker entirely


def _fail_first_attempt_of_one(marker_dir, task):
    """Task 1 raises on its first attempt and would succeed on a retry;
    every attempt appends a byte to the task's marker file."""
    marker = Path(marker_dir) / f"attempts-{task}"
    with open(marker, "a") as fh:
        fh.write("x")
    if task == 1 and marker.stat().st_size == 1:
        raise ValueError("first attempt")
    return task


def _boom_on_one_and_three(task):
    if task == 1:
        time.sleep(0.3)  # task 3 fails first in wall-clock time
    if task in (1, 3):
        raise ValueError(f"boom {task}")
    return task


# ------------------------------------------------------------------ ordering

def test_serial_parallel_equivalence():
    tasks = list(range(12))
    serial = run_many(tasks, _square, workers=0)
    parallel = run_many(tasks, _square, workers=4)
    assert serial == parallel == [t * t for t in tasks]


def _sleepy_identity(task):
    time.sleep(task / 1000.0)
    return task


def test_results_in_submission_order_not_completion_order():
    # Mixed durations reorder completions; submission order must win.
    tasks = [60, 1, 40, 2, 50, 3]
    assert run_many(tasks, _sleepy_identity, workers=3) == tasks


# ------------------------------------------------------------- workers=0 path

def test_workers_zero_runs_in_process():
    pids = run_many([1, 2, 3], _pid_of, workers=0)
    assert set(pids) == {os.getpid()}


def test_workers_positive_runs_out_of_process():
    pids = run_many([1, 2, 3, 4], _pid_of, workers=2)
    assert os.getpid() not in pids


# --------------------------------------------------------------- crash paths

@pytest.mark.parametrize("workers", [0, 2])
def test_runner_exception_surfaces_as_worker_error(workers):
    with pytest.raises(WorkerError) as exc_info:
        run_many([1, 2, 3, 4], _boom_on_three, workers=workers)
    err = exc_info.value
    assert err.index == 2
    assert err.task == 3
    assert isinstance(err.__cause__, ValueError)
    assert "boom" in str(err)


@pytest.mark.parametrize("workers", [0, 2])
def test_fault_free_mode_never_retries(tmp_path, workers):
    runner = functools.partial(_fail_first_attempt_of_one, str(tmp_path))
    with pytest.raises(WorkerError) as exc_info:
        run_many([0, 1, 2], runner, workers=workers)
    assert exc_info.value.index == 1
    assert (tmp_path / "attempts-1").read_text() == "x"


@pytest.mark.parametrize("workers", [0, 2])
def test_several_failures_name_the_lowest_index(workers):
    with pytest.raises(WorkerError) as exc_info:
        run_many([0, 1, 2, 3], _boom_on_one_and_three, workers=workers)
    err = exc_info.value
    assert err.index == 1
    assert isinstance(err.__cause__, ValueError)
    assert "boom 1" in str(err)


def test_dead_worker_process_surfaces_as_worker_error():
    with pytest.raises(WorkerError):
        run_many([1], _kill_self, workers=1)


# ------------------------------------------------------------------ progress

def test_progress_events_account_for_every_task():
    events = []
    run_many(list(range(5)), _square, workers=0, progress=events.append)
    assert all(isinstance(e, Progress) for e in events)
    final = events[-1]
    assert final.done == final.total == 5
    assert final.executed == 5 and final.cached == 0
    assert [e.done for e in events] == sorted(e.done for e in events)


# ------------------------------------------------------------------- caching

def test_cache_skips_execution_on_second_run(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_many_report([2, 4, 6], _square, workers=0, cache=cache)
    assert first.executed == 3 and first.cached == 0
    second = run_many_report([2, 4, 6], _square, workers=0, cache=cache)
    assert second.executed == 0 and second.cached == 3
    assert second.results == first.results


def test_cache_partial_hit_only_runs_new_tasks(tmp_path):
    cache = ResultCache(tmp_path)
    run_many([2, 4], _square, workers=0, cache=cache)
    report = run_many_report([2, 4, 6], _square, workers=0, cache=cache)
    assert report.executed == 1 and report.cached == 2
    assert report.results == [4, 16, 36]


# ------------------------------------------- acceptance: closed-loop sweep

GRID = dict(betas=(0.5, 0.65, 0.8), gammas=(0.001, 0.005, 0.02),
            seeds=(3,), size_mb=96.0)


def test_closed_loop_sweep_parallel_matches_serial(tmp_path):
    """≥3×3 β/γ grid: workers=4 output identical to the serial run, and a
    warm-cache re-run executes zero simulations."""
    serial = sweeps.closed_loop_sweep(**GRID)
    assert len(serial) == 9

    cold_events = []
    parallel = sweeps.closed_loop_sweep(
        **GRID, workers=4, cache_dir=str(tmp_path),
        progress=cold_events.append)
    assert parallel == serial
    assert cold_events[-1].executed == 9

    warm_events = []
    runs_before = sweeps.POINT_RUNS
    warm = sweeps.closed_loop_sweep(
        **GRID, workers=4, cache_dir=str(tmp_path),
        progress=warm_events.append)
    assert warm == serial
    # Zero simulations executed: neither dispatched by the engine...
    assert warm_events[-1].executed == 0
    assert warm_events[-1].cached == 9
    # ...nor run in this process.
    assert sweeps.POINT_RUNS == runs_before


def test_closed_loop_sweep_workers_zero_uses_calling_process(tmp_path):
    small = dict(betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=96.0)
    runs_before = sweeps.POINT_RUNS
    sweeps.closed_loop_sweep(**small, workers=0)
    assert sweeps.POINT_RUNS == runs_before + 1


def test_sweep_point_values_are_finite():
    points = sweeps.closed_loop_sweep(
        betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=96.0)
    (point,) = points
    assert math.isfinite(point.victim_jct)
    assert math.isfinite(point.antagonist_ops_per_s)
    assert point.decrease_depth == pytest.approx(0.2)


def test_supervised_sweep_reports_salvaged_points_in_stats():
    """A point that fails every supervised attempt (invalid config) is
    salvaged to NaN, but the hole must be visible in ``stats`` so the
    CLI can refuse to exit 0 — a config error is not a quiet NaN."""
    stats = {}
    (point,) = sweeps.closed_loop_sweep(
        betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=0.0,
        workers=0, supervise=True, stats=stats)
    assert stats["salvaged"] == 1
    assert math.isnan(point.victim_jct)


def test_plain_sweep_fills_stats_with_zero_salvage(tmp_path):
    stats = {}
    sweeps.closed_loop_sweep(
        betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=96.0,
        workers=0, cache_dir=str(tmp_path), stats=stats)
    assert stats == {"executed": 1, "cached": 0, "salvaged": 0}

# ----------------------------------------------------- child tracebacks

@pytest.mark.parametrize("workers", [0, 2])
def test_worker_error_carries_formatted_child_traceback(workers):
    """The traceback text captured *inside* the worker travels with the
    error: frames of the runner itself, not just the pool plumbing."""
    with pytest.raises(WorkerError) as exc_info:
        run_many([1, 2, 3, 4], _boom_on_three, workers=workers)
    err = exc_info.value
    assert err.child_traceback is not None
    assert "_boom_on_three" in err.child_traceback
    assert "ValueError: boom" in err.child_traceback
    # The message embeds it for logs that only print str(err).
    assert "--- worker traceback ---" in str(err)
    assert "_boom_on_three" in str(err)


_ORPHANING_PARENT = """
import os, sys, time
from pathlib import Path
from repro.experiments.parallel import run_many

def runner(task):
    Path(sys.argv[1]).write_text(str(os.getpid()))
    time.sleep(120)

run_many([0], runner, workers=1)
"""


def _exited(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(")")[-1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_worker_exits_when_its_parent_is_killed(tmp_path):
    """A SIGKILLed run must not leave its pool workers behind."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    pid_file = tmp_path / "worker.pid"
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_PARENT, str(pid_file)], env=env,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline, "worker never started"
            time.sleep(0.02)
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=30.0)
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 10.0
    while not _exited(worker):
        if time.monotonic() > deadline:
            os.kill(worker, signal.SIGKILL)
            pytest.fail("worker outlived its killed parent")
        time.sleep(0.05)


def test_dead_worker_error_names_the_task_without_a_traceback():
    with pytest.raises(WorkerError) as exc_info:
        run_many([7], _kill_self, workers=1)
    err = exc_info.value
    # A SIGKILLed worker produces no child traceback (nothing ran to
    # completion to format one) — the message still names the task.
    assert err.index == 0
    assert err.task == 7
    assert "task 0" in str(err)

"""Deterministic fan-out of independent experiment runs: one engine.

:func:`run_many_report` dispatches a list of task descriptions to a
runner callable — in the calling process (``workers=0``) or across
``N`` fork workers it owns directly — optionally backed by a
:class:`~repro.experiments.cache.ResultCache` and a checkpoint
manifest; :func:`run_many` is its results-only facade.  Three
properties make it safe to drop under any existing serial loop:

* **Order preservation** — results come back in submission order, so a
  caller that aggregates sequentially produces output byte-identical to
  the serial path regardless of completion order.
* **In-process mode** — ``workers=0`` runs everything in the calling
  process with no worker at all: tests and debuggers see ordinary
  stack traces and module-level counters keep working.
* **Crash surfacing** — a task that fails for good (its runner raised or
  its worker died) is re-raised in the parent as :class:`WorkerError`
  carrying the task index, description, the original exception as
  ``__cause__`` and the **formatted child traceback**, never swallowed.
  When several tasks fail it names the lowest index, as a serial run
  would.

``policy`` chooses how hard the engine fights for each task; both
policies run the same dispatch loop, so fault-free runs give identical
results under either.  ``None`` is the fault-free mode, :data:`STRICT`:
no deadline, no heartbeat kill, no retry, no speculation, no salvage —
the first failure is final.  A :class:`SupervisorPolicy` makes the run
*finish* even when workers crash, wedge or straggle: per-task
wall-clock timeouts, heartbeats that catch a ``SIGSTOP``-frozen worker
(whose pipe never reaches EOF), bounded retries with seeded backoff,
dead-pool respawn, speculative re-dispatch of stragglers (the
harness-level analogue of the paper's LATE baseline) and salvage of
exhausted tasks into ``None`` placeholders.  Under either policy a pool
dead beyond its respawn budget finishes in-process (serial fallback).

Workers are connected by per-worker duplex pipes — deliberately
**not** a shared ``multiprocessing.Queue``: SIGKILLing a worker that
holds a shared queue's read lock would deadlock every other consumer,
which is exactly the failure mode the supervisor exists to survive.
Killing a pipe's worker only ever breaks that pipe.  Results cross the
pipe as pickles; off fork platforms the tasks and runner must pickle
too (module-scope runners and frozen dataclass tasks).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import statistics
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.cache import ResultCache, task_key

__all__ = [
    "Progress",
    "RunReport",
    "STRICT",
    "SupervisorPolicy",
    "SupervisorStats",
    "TaskOutcome",
    "WORKER_ENV",
    "WorkerError",
    "run_many",
    "run_many_report",
]

#: Set (to ``"1"``) in the environment of every worker process.  Chaos
#: wrappers key off it so a fault that SIGKILLs "the worker" can never
#: fire in the parent — in particular not when the serial rung runs
#: tasks in-process.
WORKER_ENV = "REPRO_SUPERVISED_WORKER"


@dataclass(frozen=True)
class Progress:
    """Snapshot of a :func:`run_many` invocation, passed to ``progress``.

    ``done`` counts resolved tasks (executed or cache hits); ``executed``
    counts tasks handed to the runner — a warm-cache re-run finishes
    with ``executed == 0``.
    """

    done: int
    total: int
    executed: int
    cached: int
    elapsed: float


@dataclass(frozen=True)
class TaskOutcome:
    """How one task of a run resolved.

    ``status`` is one of:

    ``"cached"``
        Served from the result cache without executing.
    ``"ok"``
        Executed successfully on the first attempt.
    ``"retried"``
        Executed successfully, but only after at least one failed
        attempt (policies with retries only).
    ``"timed_out"``
        Every attempt exceeded its wall-clock deadline (or its worker
        wedged); no result (salvaging policies only).
    ``"failed"``
        Every attempt raised (or its worker died); no result
        (salvaging policies only).
    """

    index: int
    status: str
    #: Attempts dispatched (0 for a cache hit; >1 means retries and/or
    #: speculative duplicates).
    attempts: int = 1
    #: Wall-clock seconds from first dispatch to resolution.
    elapsed: float = 0.0
    #: Formatted traceback / reason of the *last* failed attempt.
    error: Optional[str] = None
    #: A speculative duplicate was dispatched for this task (straggler).
    speculated: bool = False

    @property
    def ok(self) -> bool:
        """Whether this task produced a result."""
        return self.status in ("cached", "ok", "retried")


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for supervised execution.  Defaults suit minutes-long tasks."""

    #: Wall-clock budget per dispatch; an attempt exceeding it is killed
    #: and counts as a timeout failure.
    task_timeout_s: float = 600.0
    #: How often each worker's daemon thread refreshes its heartbeat slot.
    heartbeat_interval_s: float = 0.2
    #: Heartbeat staleness that gets a worker declared wedged and killed.
    heartbeat_grace_s: float = 5.0
    #: Failed attempts a task may retry (total attempts = retries + 1).
    max_retries: int = 2
    #: First-retry backoff; doubles per subsequent failure of the task.
    backoff_base_s: float = 0.05
    #: Backoff ceiling.
    backoff_max_s: float = 2.0
    #: Seed for the backoff-jitter stream (never touches task results).
    seed: int = 0
    #: Dispatch a duplicate of a straggling task to an idle worker.
    speculate: bool = True
    #: Straggler threshold: elapsed > factor × median completed duration.
    speculation_factor: float = 3.0
    #: Completed-task sample required before the median is trusted.
    speculation_min_done: int = 3
    #: Replacement workers that may be spawned over the run's lifetime.
    max_respawns: int = 4
    #: Resolve exhausted tasks to ``None`` placeholders instead of raising.
    salvage: bool = True
    #: Parent poll cadence (pipe readiness + deadline scans).
    poll_interval_s: float = 0.02


#: The fault-free mode (``policy=None``): every attempt may run as long
#: as it needs, and the first failure raises :class:`WorkerError`.
STRICT = SupervisorPolicy(
    task_timeout_s=math.inf,
    heartbeat_grace_s=math.inf,
    max_retries=0,
    speculate=False,
    max_respawns=0,
    salvage=False,
)


@dataclass
class SupervisorStats:
    """What supervision had to do during one run (all zero ⇒ clean run)."""

    retries: int = 0
    timeouts: int = 0
    heartbeat_kills: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    speculative: int = 0
    speculative_wins: int = 0
    salvaged: int = 0
    serial_fallback: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class RunReport:
    """Results plus execution accounting from :func:`run_many_report`."""

    results: List[Any]
    executed: int
    cached: int
    elapsed: float
    #: Per-task resolution records, in submission order.
    outcomes: List[TaskOutcome] = field(default_factory=list)
    #: What supervision had to do during the run.
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)

    @property
    def ok(self) -> bool:
        """Every task produced a result (no salvaged holes)."""
        return all(o.ok for o in self.outcomes)

    @property
    def salvaged(self) -> int:
        """Tasks that resolved without a result (``None`` placeholder)."""
        return sum(1 for o in self.outcomes if not o.ok)


class WorkerError(RuntimeError):
    """A task's runner raised (or its worker process died).

    Carries ``index`` (position in the submitted task list) and ``task``
    so sweep failures name the exact grid point; the original exception
    is chained as ``__cause__`` and ``child_traceback`` holds the
    formatted traceback text captured *inside* the worker process — the
    parent-side stack ends at the pickling boundary, so without it a
    crash would only be debuggable by re-running serially.
    """

    def __init__(
        self,
        index: int,
        task: Any,
        cause: BaseException,
        child_traceback: Optional[str] = None,
    ) -> None:
        message = (
            f"task {index} ({task!r}) failed: {type(cause).__name__}: {cause}"
        )
        if child_traceback:
            message += f"\n--- worker traceback ---\n{child_traceback.rstrip()}"
        super().__init__(message)
        self.index = index
        self.task = task
        self.child_traceback = child_traceback


def _traced(runner: Callable[[Any], Any], task: Any):
    """Run ``runner(task)``, capturing the traceback text.

    Returns ``("ok", value)`` or ``("err", traceback_text, exc)`` — the
    exception travels back from a worker as a pickled *value* so the
    parent can chain it, while the formatted traceback (which pickling
    would lose) travels beside it as plain text.
    """
    try:
        value = runner(task)
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return ("err", text, exc)
    return ("ok", value)


# ----------------------------------------------------------------------
# Worker side


def _worker_main(conn, heartbeats, slot: int, interval: float,
                 runner: Callable[[Any], Any], tasks: Sequence[Any]) -> None:
    """Worker process body: beat the heartbeat, run task indices off the pipe.

    The heartbeat runs on a daemon thread so it keeps beating while the
    runner blocks in C code or sleeps; only process-wide freezes
    (``SIGSTOP``, a GIL-holding spin, death) silence it — which is
    precisely the signal the parent wants.  It also ends the worker once
    the parent is gone: fork hands this worker (and every later sibling)
    a copy of the parent's pipe ends, so a killed parent never shows up
    as EOF on ``conn``.
    """
    os.environ[WORKER_ENV] = "1"
    parent = os.getppid()

    def beat() -> None:
        while os.getppid() == parent:
            heartbeats[slot] = time.monotonic()
            time.sleep(interval)
        os._exit(1)

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            conn.send(_traced(runner, tasks[conn.recv()]))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent closed the pipe; it stops workers by killing them


# ----------------------------------------------------------------------
# Parent side


class _Task:
    """Supervision state for one submitted task."""

    __slots__ = (
        "index", "dispatches", "failures", "active", "eligible_at",
        "first_dispatch", "speculated", "resolved",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.dispatches = 0          # attempts sent (incl. speculative)
        self.failures = 0            # attempts that failed
        self.active: Set[int] = set()  # worker ids running it right now
        self.eligible_at = 0.0       # earliest re-dispatch time (backoff)
        self.first_dispatch: Optional[float] = None
        self.speculated = False
        self.resolved = False


class _Worker:
    __slots__ = ("wid", "proc", "conn", "task", "since")

    def __init__(self, wid: int, proc, conn) -> None:
        self.wid = wid               # also its heartbeat slot
        self.proc = proc
        self.conn = conn
        self.task: Optional[int] = None  # task index, or None when idle
        self.since = 0.0             # dispatch time of the current task


class _Supervisor:
    """The dispatch loop both policies share: pool first, then in-process."""

    def __init__(
        self,
        tasks: Sequence[Any],
        runner: Callable[[Any], Any],
        pending: List[int],
        workers: int,
        policy: SupervisorPolicy,
        settle: Callable[[int, Any, TaskOutcome], None],
        stats: SupervisorStats,
    ) -> None:
        self.tasks = tasks
        self.runner = runner
        self.policy = policy
        self.settle = settle
        self.stats = stats
        self.workers = workers
        self.states = {i: _Task(i) for i in pending}
        self.unresolved: Set[int] = set(pending)
        self.durations: List[float] = []
        self.rng = random.Random(policy.seed)
        #: (index, cause, child traceback) of the lowest task that failed
        #: for good; the run raises it once no lower task is open.
        self.fatal: Optional[Tuple[int, BaseException, Optional[str]]] = None
        self.pool: List[_Worker] = []
        self.spawned = 0

    def run(self) -> None:
        if self.workers > 0:
            self._run_pool()
        if self._open():
            self.stats.serial_fallback = self.workers > 0
            self._run_serial()
        if self.fatal is not None:
            index, cause, text = self.fatal
            raise WorkerError(index, self.tasks[index], cause, text) from cause

    def _open(self) -> List[int]:
        """Unresolved tasks that can still change the outcome, in order.

        After a task fails for good only lower-indexed tasks matter: the
        run raises for the lowest failing index, as a serial run would.
        """
        cap = self.fatal[0] if self.fatal is not None else math.inf
        return sorted(i for i in self.unresolved if i < cap)

    # -- attempt resolution ----------------------------------------------

    def _begin(self, state: _Task, now: float) -> None:
        state.dispatches += 1
        if state.first_dispatch is None:
            state.first_dispatch = now

    def _attempt_done(self, state: _Task, envelope: Tuple) -> None:
        if state.resolved:
            return  # a speculative sibling already won; result discarded
        if envelope[0] == "err":
            _, text, exc = envelope
            self._attempt_failed(state, "failed", text, exc)
            return
        if state.speculated and state.active:
            self.stats.speculative_wins += 1
        self.durations.append(self._settle(
            state, envelope[1], "retried" if state.failures else "ok",
        ))

    def _attempt_failed(self, state: _Task, kind: str, error: str,
                        exc: Optional[BaseException] = None) -> None:
        """One attempt failed: retry, salvage or record the failure.

        ``kind`` is ``"failed"`` or ``"timed_out"``; ``error`` is the
        child traceback text (or a reason) and ``exc`` what the runner
        raised, if it got that far.
        """
        if state.resolved:
            return  # a speculative sibling already won; nothing to do
        state.failures += 1
        if state.active:
            return  # a sibling attempt is still running — let it race
        if state.failures <= self.policy.max_retries:
            backoff = min(
                self.policy.backoff_max_s,
                self.policy.backoff_base_s * (2 ** (state.failures - 1)),
            )
            # Seeded jitter in [0.5, 1.0]× so simultaneous retries from
            # one failure burst don't re-dispatch in lockstep.
            state.eligible_at = (
                time.monotonic() + backoff * (0.5 + 0.5 * self.rng.random())
            )
            self.stats.retries += 1
            return
        if self.policy.salvage:
            self.stats.salvaged += 1
            self._settle(state, None, kind, error)
            return
        state.resolved = True
        self.unresolved.discard(state.index)
        if self.fatal is None or state.index < self.fatal[0]:
            if exc is None:  # timed out or died: no child traceback
                self.fatal = (state.index, RuntimeError(error), None)
            else:
                self.fatal = (state.index, exc, error)

    def _settle(self, state: _Task, value: Any, status: str,
                error: Optional[str] = None) -> float:
        """Resolve ``state`` with ``value``; returns its elapsed seconds."""
        elapsed = time.monotonic() - state.first_dispatch
        state.resolved = True
        self.unresolved.discard(state.index)
        self.settle(state.index, value, TaskOutcome(
            index=state.index, status=status, attempts=state.dispatches,
            elapsed=elapsed, error=error, speculated=state.speculated,
        ))
        return elapsed

    # -- in-process rung -------------------------------------------------

    def _run_serial(self) -> None:
        """Finish the open tasks in-process.

        The requested mode with ``workers=0``; otherwise the last rung
        of a pool dead beyond its respawn budget.  No timeout
        enforcement is possible here (there is no worker to kill), but
        progress is guaranteed and chaos kill-wrappers stay inert
        because :data:`WORKER_ENV` is unset in the parent.
        """
        for index in self._open():
            state = self.states[index]
            while not state.resolved:
                delay = state.eligible_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self._begin(state, time.monotonic())
                envelope = _traced(self.runner, self.tasks[index])
                self._attempt_done(state, envelope)
            if self.fatal is not None:
                return

    # -- worker lifecycle ------------------------------------------------

    def _run_pool(self) -> None:
        # fork keeps startup cheap on Linux and hands every worker the
        # tasks and runner without pickling them.  One heartbeat slot
        # per worker ever spawned, preallocated for the respawn budget.
        try:
            self.ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self.ctx = multiprocessing.get_context()
        self.slots = self.workers + self.policy.max_respawns
        self.heartbeats = self.ctx.Array("d", self.slots, lock=False)
        try:
            for _ in range(min(self.workers, len(self.unresolved))):
                self._spawn()
            while True:
                wanted = min(self.workers, len(self._open()))
                if not wanted:
                    break
                now = time.monotonic()
                self._reap(now)
                # Keep the pool at strength while the respawn budget and
                # useful work both remain.
                while len(self.pool) < wanted and self.spawned < self.slots:
                    self._spawn()
                    self.stats.respawns += 1
                if not self.pool:
                    return  # dead beyond respawn → serial rung
                self._fill_idle(now)
                conns = {w.conn: w for w in self.pool}
                for conn in connection_wait(
                    list(conns), timeout=self.policy.poll_interval_s,
                ):
                    self._drain(conns[conn])
        finally:
            # Workers keep no state worth a graceful exit.
            for worker in list(self.pool):
                self._stop(worker)

    def _spawn(self) -> None:
        wid = self.spawned
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        self.heartbeats[wid] = time.monotonic()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.heartbeats, wid,
                  self.policy.heartbeat_interval_s, self.runner, self.tasks),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.spawned += 1
        self.pool.append(_Worker(wid, proc, parent_conn))

    def _stop(self, worker: _Worker) -> None:
        """Kill ``worker`` (if it is still alive) and drop it from the pool."""
        self.pool.remove(worker)
        worker.conn.close()
        worker.proc.kill()
        worker.proc.join(timeout=5.0)

    def _release(self, worker: _Worker) -> Optional[_Task]:
        """Detach ``worker`` from its task; that task's state, if any."""
        index, worker.task = worker.task, None
        if index is None:
            return None
        state = self.states[index]
        state.active.discard(worker.wid)
        return state

    def _lose(self, worker: _Worker, kind: str, reason: str) -> None:
        """Stop ``worker`` and fail the attempt it was running, if any."""
        self._stop(worker)
        state = self._release(worker)
        if state is not None:
            self._attempt_failed(state, kind, reason)

    # -- scheduling ------------------------------------------------------

    def _dispatch(self, worker: _Worker, index: int, now: float,
                  speculative: bool = False) -> None:
        """Hand task ``index`` to ``worker`` — the only way work leaves
        the parent."""
        state = self.states[index]
        self._begin(state, now)
        if speculative:
            state.speculated = True
            self.stats.speculative += 1
        state.active.add(worker.wid)
        worker.task = index
        worker.since = now
        try:
            worker.conn.send(index)
        except (OSError, ValueError):
            # The worker died between polls; the normal retry path
            # reschedules the task.
            self.stats.worker_deaths += 1
            self._lose(worker, "failed", "worker process died")

    def _fill_idle(self, now: float) -> None:
        idle = [w for w in self.pool if w.task is None]
        if not idle:
            return
        open_tasks = self._open()
        runnable = [
            i for i in open_tasks
            if not self.states[i].active and self.states[i].eligible_at <= now
        ]
        for worker, index in zip(idle, runnable):
            self._dispatch(worker, index, now)
        idle = idle[len(runnable):]
        if (not idle or not self.policy.speculate
                or len(self.durations) < self.policy.speculation_min_done):
            return
        threshold = (
            self.policy.speculation_factor * statistics.median(self.durations)
        )
        stragglers = [
            i for i in open_tasks
            if len(self.states[i].active) == 1
            and not self.states[i].speculated
            and now - self.states[i].first_dispatch > threshold
        ]
        for worker, index in zip(idle, stragglers):
            self._dispatch(worker, index, now, speculative=True)

    # -- failure detection -----------------------------------------------

    def _reap(self, now: float) -> None:
        for worker in list(self.pool):
            timed_out = (worker.task is not None
                         and now - worker.since > self.policy.task_timeout_s)
            if timed_out:
                self.stats.timeouts += 1
                self._lose(worker, "timed_out", "task deadline exceeded")
            elif (now - self.heartbeats[worker.wid]
                  > self.policy.heartbeat_grace_s):
                self.stats.heartbeat_kills += 1
                self._lose(worker, "timed_out", "worker heartbeat lost")

    def _drain(self, worker: _Worker) -> None:
        try:
            envelope = worker.conn.recv()
        except (EOFError, OSError):
            # The worker crashed or was killed from outside.
            self.stats.worker_deaths += 1
            self._lose(worker, "failed", "worker process died")
            return
        self._attempt_done(self._release(worker), envelope)


# ----------------------------------------------------------------------
# Entry points


def run_many(
    tasks: Sequence[Any],
    runner: Callable[[Any], Any],
    **kwargs,
) -> List[Any]:
    """Results-only facade over :func:`run_many_report`."""
    return run_many_report(tasks, runner, **kwargs).results


def run_many_report(
    tasks: Sequence[Any],
    runner: Callable[[Any], Any],
    *,
    workers: int = 0,
    policy: Optional[SupervisorPolicy] = None,
    cache: Optional[ResultCache] = None,
    key_fn: Optional[Callable[[Any], str]] = None,
    progress: Optional[Callable[[Progress], None]] = None,
    checkpoint=None,
) -> RunReport:
    """Run ``runner(task)`` for every task; results in submission order.

    Parameters
    ----------
    workers:
        ``0`` — run in-process, serially (the debug/test path).
        ``N > 0`` — dispatch across a pool of ``N`` worker processes.
    policy:
        ``None`` — the fault-free mode (:data:`STRICT`): the first
        failure raises :class:`WorkerError`.  A :class:`SupervisorPolicy`
        — timeouts, retries, respawn, speculation and salvage (with
        ``salvage``, exhausted tasks come back as ``None`` placeholders;
        check ``report.ok``).
    cache:
        Optional result store.  Hits skip execution entirely; misses are
        stored after the runner returns.
    key_fn:
        Task → cache-key function; defaults to
        :func:`repro.experiments.cache.task_key` (stable hash of the
        task's fields plus the code version).
    progress:
        Called with a :class:`Progress` snapshot as tasks resolve.
    checkpoint:
        Optional :class:`repro.resilience.checkpoint.Checkpoint`; every
        completed task's cache key is recorded so a killed run can be
        resumed (requires ``cache`` so resumed tasks can replay).
    """
    tasks = list(tasks)
    total = len(tasks)
    start = time.perf_counter()
    results: List[Any] = [None] * total
    outcomes: List[Optional[TaskOutcome]] = [None] * total
    keys: List[Optional[str]] = [None] * total
    stats = SupervisorStats()

    cached = 0
    if cache is not None:
        make_key = key_fn or task_key
        for i, task in enumerate(tasks):
            keys[i] = make_key(task)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
                outcomes[i] = TaskOutcome(index=i, status="cached", attempts=0)
                cached += 1
                if checkpoint is not None:
                    checkpoint.record(keys[i])

    pending = [i for i in range(total) if outcomes[i] is None]
    executed = len(pending)
    done = cached

    def emit() -> None:
        if progress is not None:
            progress(Progress(
                done=done, total=total, executed=executed, cached=cached,
                elapsed=time.perf_counter() - start,
            ))

    def settle(i: int, value: Any, outcome: TaskOutcome) -> None:
        nonlocal done
        results[i] = value
        outcomes[i] = outcome
        if outcome.ok:
            if cache is not None:
                cache.put(keys[i], value)
            if checkpoint is not None:
                checkpoint.record(keys[i])
        done += 1
        emit()

    emit()
    if pending:
        _Supervisor(
            tasks, runner, pending, workers, policy or STRICT, settle, stats,
        ).run()

    return RunReport(
        results=results, executed=executed, cached=cached,
        elapsed=time.perf_counter() - start, outcomes=outcomes,
        supervisor=stats,
    )

"""Parameter-sensitivity sweeps for the CUBIC control law.

The paper sets β = 0.8 and γ = 0.005 "empirically ... to achieve good
performance isolation in a timely manner, while avoiding unwarranted
performance degradation of antagonists" (§III-C) without showing the
trade-off surface.  These sweeps expose it:

* analytically — recovery horizon K(β, γ) and post-decrease depth; and
* in closed loop — victim JCT vs. antagonist throughput across the grid,
  on the Fig. 9-style single-host scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PerfCloudConfig
from repro.core.cubic import CubicController
from repro.experiments.cache import ResultCache
from repro.experiments.harness import TestbedConfig, build_testbed, run_until
from repro.experiments.parallel import (
    Progress,
    SupervisorPolicy,
    run_many_report,
)
from repro.workloads.datagen import teragen
from repro.workloads.puma import terasort

__all__ = [
    "ClosedLoopTask",
    "CubicSweepPoint",
    "analytic_sweep",
    "closed_loop_sweep",
    "run_closed_loop_point",
]

#: Closed-loop simulations executed *in this process* (test hook for the
#: warm-cache and ``workers=0`` paths; parent-side accounting across
#: worker processes comes from :class:`~repro.experiments.parallel.Progress`).
POINT_RUNS = 0


@dataclass
class CubicSweepPoint:
    """One (β, γ) grid point's outcomes."""

    beta: float
    gamma: float
    #: Intervals from a decrease back to C_max (analytic K).
    recovery_intervals: float
    #: Cap level right after a decrease (1 - β).
    decrease_depth: float
    #: Closed loop (None for analytic-only sweeps):
    victim_jct: float | None = None
    antagonist_ops_per_s: float | None = None


def analytic_sweep(
    betas: Sequence[float] = (0.5, 0.65, 0.8, 0.9),
    gammas: Sequence[float] = (0.001, 0.005, 0.02),
) -> List[CubicSweepPoint]:
    """K and depth across the grid — no simulation required."""
    out = []
    for beta in betas:
        for gamma in gammas:
            cfg = PerfCloudConfig(beta=beta, gamma=gamma)
            controller = CubicController(cfg)
            out.append(
                CubicSweepPoint(
                    beta=beta,
                    gamma=gamma,
                    recovery_intervals=controller.k(1.0),
                    decrease_depth=1.0 - beta,
                )
            )
    return out


@dataclass(frozen=True)
class ClosedLoopTask:
    """One independent closed-loop simulation: a (β, γ) point at one seed."""

    beta: float
    gamma: float
    seed: int
    size_mb: float = 960.0


def run_closed_loop_point(task: ClosedLoopTask) -> Tuple[float, float]:
    """Execute one grid-point simulation; returns ``(jct, ant_ops_per_s)``.

    Module-level and argument-picklable so the parallel engine can ship
    it to worker processes unchanged.
    """
    global POINT_RUNS
    POINT_RUNS += 1
    cfg = PerfCloudConfig(beta=task.beta, gamma=task.gamma)
    testbed = build_testbed(
        TestbedConfig(
            seed=task.seed, num_workers=6, framework="mapreduce",
            antagonists=(("fio", None),),
        )
    )
    testbed.deploy_perfcloud(cfg)
    job = testbed.jobtracker.submit(
        terasort(), teragen(task.size_mb), int(task.size_mb // 64)
    )
    if not run_until(
        testbed.sim, lambda: job.completion_time is not None, 8000
    ):
        raise RuntimeError("sweep run did not finish")
    fio = testbed.antagonist_drivers["fio"]
    return job.completion_time, fio.iops.total / testbed.sim.now


def closed_loop_sweep(
    betas: Sequence[float] = (0.5, 0.8),
    gammas: Sequence[float] = (0.001, 0.005, 0.02),
    seeds: Sequence[int] = (3, 7),
    *,
    size_mb: float = 960.0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
    supervise: bool = False,
    resume: Optional[str] = None,
    stats: Optional[dict] = None,
) -> List[CubicSweepPoint]:
    """Victim JCT and antagonist throughput across the (β, γ) grid.

    Small γ → slow recovery → strong protection, heavy antagonist cost;
    large γ → fast probing → lighter antagonist cost, weaker protection.

    Each ``(β, γ, seed)`` point is an independent simulation, fanned out
    via :func:`~repro.experiments.parallel.run_many`: ``workers=N`` runs
    N simulations concurrently (0 = in-process serial), ``cache_dir``
    memoizes per-point results on disk, and the merged output is
    identical to the serial path whatever the completion order.

    ``supervise=True`` runs under the default
    :class:`~repro.experiments.parallel.SupervisorPolicy` (timeouts,
    retries, respawn, salvage) instead of the fault-free mode;
    ``resume`` names a checkpoint-manifest path so a killed sweep
    re-invoked with the same grid re-executes zero finished points
    (requires ``cache_dir``).
    Passing a dict as ``stats`` fills it with run accounting
    (``executed``/``cached``/``salvaged``) — a supervised run salvages
    a point whose every attempt failed into NaN rather than aborting
    the grid, and callers that must not silently accept holes (the CLI)
    check ``stats["salvaged"]``.
    """
    tasks = [
        ClosedLoopTask(beta=beta, gamma=gamma, seed=seed, size_mb=size_mb)
        for beta in betas for gamma in gammas for seed in seeds
    ]
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    checkpoint = None
    if resume is not None:
        if cache is None:
            raise ValueError("--resume requires a cache dir (results of "
                             "finished points replay from the cache)")
        from repro.experiments.cache import stable_hash
        from repro.resilience.checkpoint import Checkpoint
        checkpoint = Checkpoint(
            resume, run_id=stable_hash({"sweep": tasks}), total=len(tasks),
        )
    report = run_many_report(
        tasks, run_closed_loop_point, workers=workers,
        policy=SupervisorPolicy() if supervise else None, cache=cache,
        progress=progress, checkpoint=checkpoint,
    )
    outcomes = report.results
    if stats is not None:
        stats["executed"] = report.executed
        stats["cached"] = report.cached
        stats["salvaged"] = report.salvaged
    if checkpoint is not None:
        checkpoint.close()

    out = []
    per_point = iter(outcomes)
    for beta in betas:
        for gamma in gammas:
            cfg = PerfCloudConfig(beta=beta, gamma=gamma)
            point = [next(per_point) for _ in seeds]
            # Supervised runs may salvage an unrunnable point as None;
            # average over the seeds that did complete (NaN if none did).
            valid = [p for p in point if p is not None]
            jcts = [jct for jct, _ in valid] or [float("nan")]
            ant_rates = [rate for _, rate in valid] or [float("nan")]
            controller = CubicController(cfg)
            out.append(
                CubicSweepPoint(
                    beta=beta,
                    gamma=gamma,
                    recovery_intervals=controller.k(1.0),
                    decrease_depth=1.0 - beta,
                    victim_jct=float(np.mean(jcts)),
                    antagonist_ops_per_s=float(np.mean(ant_rates)),
                )
            )
    return out

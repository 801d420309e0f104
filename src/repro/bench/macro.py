"""Macro benchmarks: end-to-end scenario timings.

Four scenarios, deliberately spanning the scales the paper evaluates:

* ``control`` — the quickstart mitigation scenario (terasort + fio +
  PerfCloud on one host) run with direct simulator access, so we can
  report simulated-event throughput, not just wall-clock;
* ``fig9`` — the small-scale dynamic-control comparison, exactly the
  public ``figures.fig9`` entry point;
* ``fig11_scale`` — a mid-size cut of the Fig. 11 large-scale experiment
  (2 hosts / 12 workers / 8 jobs); ``full=True`` runs the figure's
  default 5-host / 50-worker / 30-job dimensions instead;
* ``cluster_scale`` — the control plane alone at datacenter width
  (250/500/1,000 hosts, one agent each, no framework jobs).

All scenarios are seed-fixed: wall-clock differences between revisions
measure the code, not the workload draw.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

__all__ = ["run_macro", "bench_cluster_scale", "macro_cases", "profile_macro"]


def bench_control_scenario() -> Dict[str, float]:
    """Quickstart mitigation scenario with engine counters exposed."""
    from repro import (
        CloudManager, Cluster, FioRandomRead, HdfsCluster, JobTracker,
        PerfCloud, Priority, Simulator, teragen, terasort,
    )

    t0 = time.perf_counter()
    sim = Simulator(dt=1.0, seed=7)
    cluster = Cluster(sim)
    cluster.add_host("server0")
    cloud = CloudManager(cluster)
    workers = cloud.boot_many("hdp", 6, priority=Priority.HIGH, app_id="hadoop")
    hdfs = HdfsCluster([w.name for w in workers], sim.rng.stream("hdfs"))
    jt = JobTracker(sim, workers, hdfs)
    vm = cloud.boot("noisy")
    vm.attach_workload(FioRandomRead())
    PerfCloud(sim, cloud)
    jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(2000)
    wall = time.perf_counter() - t0
    processed = sim.events_fired + sim.ticks
    return {
        "control.wall_s": wall,
        "control.events_per_s": processed / wall,
        "control.events": float(processed),
    }


def bench_fig9() -> Dict[str, float]:
    """The small-scale control comparison through its public entry point."""
    from repro.experiments import figures

    t0 = time.perf_counter()
    figures.fig9(seeds=(3, 7, 11))
    return {"fig9.wall_s": time.perf_counter() - t0}


def bench_fig11_scale(full: bool = False) -> Dict[str, float]:
    """A fig11-scale multi-host run; ``full`` uses the figure defaults.

    Best-of-2 (like ``cluster_scale``): at ~6 s per pass a single shot
    is long enough for one CPU-steal burst on a shared runner to
    dominate the reading; the min of two passes is what the trajectory
    records.  ``full`` stays single-shot (it runs for minutes).
    """
    from repro.experiments import figures

    dims = {} if full else dict(
        num_hosts=2, num_workers=12, num_mr_jobs=4, num_spark_jobs=4,
        num_antagonist_pairs=2, horizon=6000.0,
    )
    walls = []
    for _ in range(1 if full else 2):
        t0 = time.perf_counter()
        figures.fig11(seed=7, schemes=("late", "perfcloud"), **dims)
        walls.append(time.perf_counter() - t0)
    key = "fig11_full.wall_s" if full else "fig11_scale.wall_s"
    return {key: min(walls)}


def _cluster_scale_run(num_hosts: int, *, ticks: int, low_per_host: int,
                       seed: int) -> float:
    """Wall-clock seconds to step ``num_hosts`` agents for ``ticks``
    control intervals (the cluster carries one idle HIGH app VM plus
    ``low_per_host`` idle LOW VMs per host, so every interval pays the
    full monitor → detector → identifier chain but no framework work)."""
    from repro.cloud.nova import CloudManager
    from repro.core.perfcloud import PerfCloud
    from repro.sim.engine import Simulator
    from repro.virt.cluster import Cluster
    from repro.virt.vm import Priority

    sim = Simulator(dt=1.0, seed=seed)
    cluster = Cluster(sim)
    for i in range(num_hosts):
        cluster.add_host(f"server{i:04d}")
    cloud = CloudManager(cluster)
    for i in range(num_hosts):
        host = f"server{i:04d}"
        cloud.boot(f"app{i:04d}", "m1.large", priority=Priority.HIGH,
                   app_id="app", host=host)
        for j in range(low_per_host):
            cloud.boot(f"low{i:04d}-{j}", "m1.large",
                       priority=Priority.LOW, host=host)
    with PerfCloud(sim, cloud) as pc:
        interval = pc.config.interval_s
        t0 = time.perf_counter()
        sim.run_for(ticks * interval + 1.0)
        wall = time.perf_counter() - t0
    return wall


def bench_cluster_scale(
    hosts: Sequence[int] = (250, 500, 1000),
    *,
    ticks: int = 8,
    low_per_host: int = 2,
    seed: int = 7,
    repeat: int = 2,
) -> Dict[str, float]:
    """Control-plane stepping cost vs cluster width (best-of-``repeat``)."""
    return {
        f"cluster_scale.hosts{n}_s": min(
            _cluster_scale_run(n, ticks=ticks, low_per_host=low_per_host,
                               seed=seed)
            for _ in range(max(1, repeat))
        )
        for n in hosts
    }


def macro_cases(full_fig11: bool = False) -> Dict[str, Callable[[], Dict[str, float]]]:
    """Name → zero-argument thunk for every macro scenario.

    One registry feeds both :func:`run_macro` (timing) and
    :func:`profile_macro` (cProfile), so the two always cover the same
    cases.
    """
    return {
        "control": bench_control_scenario,
        "fig9": bench_fig9,
        "fig11_scale": lambda: bench_fig11_scale(full=full_fig11),
        "cluster_scale": bench_cluster_scale,
    }


def run_macro(full_fig11: bool = False) -> Dict[str, float]:
    """Run every macro scenario; returns ``macro.``-prefixed metrics."""
    out: Dict[str, float] = {}
    for thunk in macro_cases(full_fig11).values():
        for metric, value in thunk().items():
            out[f"macro.{metric}"] = value
    return out


def profile_macro(
    top_n: int = 30,
    full_fig11: bool = False,
    cases: Optional[Sequence[str]] = None,
) -> str:
    """Run each macro case under cProfile; returns the combined report.

    One section per case, functions sorted by cumulative time, top
    ``top_n`` rows.  Profiled walls are distorted by tracing overhead —
    the report ranks *where* time goes; the timing metrics from
    :func:`run_macro` say how much.
    """
    import cProfile
    import io
    import pstats

    sections = []
    for name, thunk in macro_cases(full_fig11).items():
        if cases is not None and name not in cases:
            continue
        prof = cProfile.Profile()
        prof.enable()
        try:
            thunk()
        finally:
            prof.disable()
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).strip_dirs().sort_stats(
            "cumulative"
        ).print_stats(top_n)
        sections.append(f"==== macro.{name} ====\n{buf.getvalue().strip()}\n")
    return "\n".join(sections)

"""Build and execute one scenario world; measure its outcome.

:func:`run_world` is the pure function under the corpus: a
:class:`~repro.scenarios.spec.WorldDef` in, a flat metrics mapping out.
Everything in between — topology, framework, job submissions, antagonist
schedule, fault injection, policy — is driven from the definition and
the simulator's seeded RNG streams, so equal definitions produce
byte-identical metrics in any process (what the determinism tests and
the result cache rely on).

The metric names produced here are the vocabulary scenario expectations
are written in; ``docs/SCENARIOS.md`` documents each one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.nova import CloudManager
from repro.core.perfcloud import PerfCloud
from repro.experiments.harness import run_until
from repro.faults.injector import FaultInjector
from repro.hardware.specs import HostSpec, NicSpec, R630
from repro.obs import Telemetry
from repro.scenarios.spec import (
    AntagonistDef,
    HostDef,
    ScenarioError,
    WorldDef,
)
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.vm import VM, Priority
from repro.workloads.antagonists import (
    AdaptiveFio,
    FioRandomRead,
    IperfStream,
    StreamBenchmark,
    SysbenchCpu,
    SysbenchOltp,
)
from repro.workloads.datagen import sparkbench_synthetic, teragen, wikipedia
from repro.workloads.mix import (
    JobRequest,
    diurnal_mix,
    facebook_like_mix,
    flash_crowd_mix,
)
from repro.workloads.puma import PUMA_BENCHMARKS
from repro.workloads.sparkbench import SPARKBENCH_BENCHMARKS

__all__ = ["antagonist_names", "build_host_spec", "run_world"]

#: Driver factories for single-VM antagonist kinds; ``params`` from the
#: definition are passed straight through as keyword overrides.
_DRIVER_FACTORIES = {
    "fio": FioRandomRead,
    "fio-adaptive": AdaptiveFio,
    "fio-episodic": lambda **kw: FioRandomRead(**{"on_s": 30.0, "off_s": 20.0, **kw}),
    "oltp": lambda **kw: SysbenchOltp(**{"duration_s": None, **kw}),
    "stream": StreamBenchmark,
    "stream-episodic": lambda **kw: StreamBenchmark(
        **{"threads": 8, "on_s": 35.0, "off_s": 25.0, **kw}
    ),
    "stream-small": StreamBenchmark,
    "sysbench-cpu": SysbenchCpu,
}

_FLAVORS = {
    "fio": "m1.large",
    "fio-adaptive": "m1.large",
    "fio-episodic": "m1.large",
    "oltp": "m1.large",
    "stream": "m1.2xlarge",
    "stream-episodic": "m1.large",
    "stream-small": "m1.large",
    "sysbench-cpu": "m1.large",
}


def build_host_spec(h: HostDef) -> HostSpec:
    """Resolve a host definition into a concrete :class:`HostSpec`."""
    spec = R630  # the only base catalog entry so far
    if h.nic_gbps is not None:
        spec = replace(spec, nic=NicSpec(bandwidth_gbps=h.nic_gbps))
    if h.speed_factor is not None:
        spec = replace(spec, speed_factor=h.speed_factor)
    if h.cores is not None:
        spec = replace(spec, cores=h.cores)
    if h.disk_iops is not None:
        spec = replace(spec, disk=replace(spec.disk, max_iops=h.disk_iops))
    return spec


def antagonist_names(
    a: AntagonistDef, all_defs: Sequence[AntagonistDef]
) -> Tuple[str, ...]:
    """VM name(s) one antagonist definition boots.

    Follows the harness convention — first ``fio``, then ``fio-2`` … —
    unless the definition names itself; an ``iperf-pair`` expands into
    ``<base>-a`` and ``<base>-b``.
    """
    if a.name is not None:
        base = a.name
    else:
        ordinal = sum(1 for x in all_defs[: all_defs.index(a) + 1]
                      if x.kind == a.kind)
        stem = "iperf" if a.kind == "iperf-pair" else a.kind
        base = stem if ordinal == 1 else f"{stem}-{ordinal}"
    if a.kind == "iperf-pair":
        return (f"{base}-a", f"{base}-b")
    return (base,)


def _make_driver(kind: str, params: Dict[str, Any]):
    factory = _DRIVER_FACTORIES[kind]
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"antagonist.{kind}.params", str(exc)) from exc


def _traffic_requests(world: WorldDef) -> List[JobRequest]:
    t = world.workload.traffic
    if t is None:
        return []
    # Deterministic across processes: seeded from the world seed only.
    rng = np.random.default_rng([world.seed, 0x5CE7A810])
    common = dict(
        benchmarks=list(t.benchmarks) or None,
        small_fraction=t.small_fraction,
        max_tasks=t.max_tasks,
    )
    if t.pattern == "diurnal":
        mix = diurnal_mix(
            t.kind, t.jobs, rng, period_s=t.period_s,
            trough_factor=t.trough_factor, peak_at_frac=t.peak_at_frac,
            mean_interarrival_s=t.mean_interarrival_s, **common,
        )
    elif t.pattern == "flash-crowd":
        mix = flash_crowd_mix(
            t.kind, t.jobs, rng, at_s=t.at_s, spread_s=t.spread_s,
            background=t.background,
            background_interarrival_s=t.background_interarrival_s, **common,
        )
    else:  # poisson
        common.pop("max_tasks")
        mix = facebook_like_mix(
            t.kind, t.jobs, rng,
            mean_interarrival_s=t.mean_interarrival_s, **common,
        )
    return list(mix)


def _submit_explicit(world: WorldDef, jobtracker, spark, job_slots, sim) -> None:
    for jdef in world.workload.jobs:
        slot: Dict[str, Any] = {"job": None, "victim": jdef.victim}
        job_slots.append(slot)

        def submit(jdef=jdef, slot=slot):
            if jdef.kind == "mapreduce":
                spec = PUMA_BENCHMARKS[jdef.benchmark]()
                dataset = (teragen(jdef.size_mb)
                           if jdef.benchmark == "terasort"
                           else wikipedia(jdef.size_mb))
                reducers = (jdef.reducers if jdef.reducers is not None
                            else dataset.num_blocks)
                slot["job"] = jobtracker.submit(spec, dataset,
                                                num_reducers=reducers)
            else:
                spec = SPARKBENCH_BENCHMARKS[jdef.benchmark]()
                overrides = {
                    field: value for field, value in (
                        ("iterations", jdef.iterations),
                        ("iter_shuffle_ratio", jdef.shuffle_ratio),
                        ("iter_cpu_per_mb", jdef.cpu_per_mb),
                        ("iter_disk_fraction", jdef.disk_fraction),
                    ) if value is not None
                }
                if overrides:
                    spec = replace(spec, **overrides)
                slot["job"] = spark.submit(
                    spec, sparkbench_synthetic(jdef.benchmark, jdef.size_mb)
                )

        if jdef.submit_at <= 0:
            submit()
        else:
            sim.schedule_at(jdef.submit_at, submit,
                            name=f"submit-{jdef.benchmark}")


def _submit_traffic(requests, jobtracker, spark, job_slots, sim) -> None:
    for req in requests:
        slot: Dict[str, Any] = {"job": None, "victim": False}
        job_slots.append(slot)

        def submit(req=req, slot=slot):
            if req.kind == "mapreduce":
                spec = PUMA_BENCHMARKS[req.benchmark]()
                slot["job"] = jobtracker.submit(spec, req.dataset,
                                                num_reducers=req.num_reducers)
            else:
                spec = SPARKBENCH_BENCHMARKS[req.benchmark]()
                slot["job"] = spark.submit(spec, req.dataset)

        if req.submit_time <= 0:
            submit()
        else:
            sim.schedule_at(req.submit_time, submit,
                            name=f"submit-{req.benchmark}")


def run_world(world: WorldDef) -> Dict[str, Any]:
    """Execute one world definition; return its outcome metrics."""
    wl = world.workload
    sim = Simulator(dt=world.dt, seed=world.seed)
    cluster = Cluster(sim)
    host_names = []
    for i, hdef in enumerate(world.hosts):
        name = f"server{i:02d}"
        cluster.add_host(name, spec=build_host_spec(hdef))
        host_names.append(name)
    cloud = CloudManager(cluster)

    workers: List[VM] = [
        cloud.boot(f"worker{i:03d}", "m1.large", priority=Priority.HIGH,
                   app_id=wl.app_id, host=host_names[i % len(host_names)])
        for i in range(wl.workers)
    ]
    from repro.frameworks.hdfs import HdfsCluster

    hdfs = HdfsCluster([w.name for w in workers], sim.rng.stream("hdfs"),
                       replication=3)
    jobtracker = spark = None
    if wl.framework in ("mapreduce", "both"):
        from repro.frameworks.mapreduce.jobtracker import JobTracker

        jobtracker = JobTracker(sim, workers, hdfs, policy=wl.scheduler_policy)
    if wl.framework in ("spark", "both"):
        from repro.frameworks.spark.driver import SparkScheduler

        spark = SparkScheduler(sim, workers, hdfs, name="spark",
                               policy=wl.scheduler_policy)
    if jobtracker is not None and spark is not None:
        from repro.frameworks.executor import CompositeDriver

        for vm in workers:
            vm.attach_workload(CompositeDriver(
                [jobtracker.executors[vm.name], spark.executors[vm.name]]
            ))

    for app_id, count in wl.bystander_apps:
        for i in range(count):
            cloud.boot(f"{app_id}{i:03d}", "m1.large", priority=Priority.HIGH,
                       app_id=app_id, host=host_names[i % len(host_names)])

    # ----------------------------------------------------------- antagonists
    adaptive_drivers: List[AdaptiveFio] = []
    guilty: List[str] = []
    for adef in world.antagonists:
        names = antagonist_names(adef, list(world.antagonists))
        params = dict(adef.params)
        if adef.kind == "iperf-pair":
            rate = float(params.pop("rate_gbps", 9.0))
            streams = int(params.pop("streams", 16))
            if params:
                raise ScenarioError(
                    "antagonist.iperf-pair.params",
                    f"unknown params {sorted(params)} "
                    "(known: rate_gbps, streams)",
                )
            vm_a = cloud.boot(names[0], host=host_names[adef.host])
            vm_b = cloud.boot(names[1], host=host_names[adef.peer_host])
            pair = ((vm_a, names[1]), (vm_b, names[0]))

            def attach_pair(pair=pair, rate=rate, streams=streams):
                for vm, peer in pair:
                    vm.attach_workload(IperfStream(
                        peer_vm=peer, rate_gbps=rate, streams=streams,
                    ))

            if adef.start_s <= 0:
                attach_pair()
            else:
                sim.schedule_at(adef.start_s, attach_pair,
                                name=f"attach-{names[0]}")
        else:
            vm = cloud.boot(names[0], _FLAVORS[adef.kind],
                            host=host_names[adef.host])
            driver = _make_driver(adef.kind, params)
            if isinstance(driver, AdaptiveFio):
                adaptive_drivers.append(driver)

            def attach_one(vm=vm, driver=driver):
                vm.attach_workload(driver)

            if adef.start_s <= 0:
                attach_one()
            else:
                sim.schedule_at(adef.start_s, attach_one,
                                name=f"attach-{names[0]}")
        if adef.guilty:
            guilty.extend(names)

    # -------------------------------------------------------- faults, policy
    injector = None
    if world.faults is not None:
        injector = FaultInjector(sim, world.faults, cluster=cluster)
    perfcloud: Optional[PerfCloud] = None
    telemetry = None
    if world.policy.kind == "perfcloud":
        # Ledger-only telemetry: incident lifecycles cost one dict update
        # per deviating interval and feed the scored metrics; spans stay
        # off — scenario runs don't need per-interval timing.
        telemetry = Telemetry(ledger=True, spans=False)
        perfcloud = PerfCloud(sim, cloud, world.policy.build_config(),
                              fault_injector=injector,
                              telemetry=telemetry)

    # ------------------------------------------------------------------ jobs
    job_slots: List[Dict[str, Any]] = []
    _submit_explicit(world, jobtracker, spark, job_slots, sim)
    _submit_traffic(_traffic_requests(world), jobtracker, spark,
                    job_slots, sim)
    if not job_slots:
        raise ScenarioError("world.workload.jobs", "world submits no jobs")

    def all_done() -> bool:
        return all(
            s["job"] is not None and s["job"].completion_time is not None
            for s in job_slots
        )

    completed = run_until(sim, all_done, world.horizon)
    if world.cooldown_s > 0:
        sim.run_for(world.cooldown_s)

    # --------------------------------------------------------------- metrics
    jcts = [
        float(s["job"].completion_time)
        for s in job_slots
        if s["job"] is not None and s["job"].completion_time is not None
    ]
    victims = [s for s in job_slots if s["victim"]] or job_slots[:1]
    victim_jcts = [
        float(s["job"].completion_time)
        for s in victims
        if s["job"] is not None and s["job"].completion_time is not None
    ]
    nan = float("nan")
    metrics: Dict[str, Any] = {
        "jobs_total": len(job_slots),
        "jobs_completed": len(jcts),
        "completed": completed,
        "victim_jct": (float(np.mean(victim_jcts))
                       if len(victim_jcts) == len(victims) else nan),
        "mean_jct": float(np.mean(jcts)) if jcts else nan,
        "max_jct": float(np.max(jcts)) if jcts else nan,
        "p95_jct": float(np.percentile(jcts, 95)) if jcts else nan,
        "sim_now": float(sim.now),
        "conflicts_reported": len(cloud.conflict_reports),
        "adaptive_backoffs": sum(d.backoffs for d in adaptive_drivers),
    }

    if perfcloud is not None:
        actions = perfcloud.throttle_events()
        throttled = sorted({vm for (_, vm, _, cap) in actions
                            if cap is not None})
        guilty_set = set(guilty)
        false_pos = sorted(set(throttled) - guilty_set)
        app_ids = [wl.app_id] + [a for a, _ in wl.bystander_apps]
        max_io = max_cpi = 0.0
        for nm in perfcloud.node_managers.values():
            for app_id in app_ids:
                io = nm.detector.signal(app_id, "io")
                cpi = nm.detector.signal(app_id, "cpi")
                if len(io):
                    max_io = max(max_io, float(np.max(io.values())))
                if len(cpi):
                    max_cpi = max(max_cpi, float(np.max(cpi.values())))
        survival = perfcloud.survival_summary()
        metrics.update({
            "identified": tuple(throttled),
            "throttle_actions": sum(1 for a in actions if a[3] is not None),
            "release_actions": sum(1 for a in actions if a[3] is None),
            "false_positives": len(false_pos),
            "false_positive_vms": tuple(false_pos),
            "false_positive_rate": (len(false_pos) / len(throttled)
                                    if throttled else 0.0),
            "missed_antagonists": len(guilty_set - set(throttled)),
            "missed_vms": tuple(sorted(guilty_set - set(throttled))),
            "max_io_signal": max_io,
            "max_cpi_signal": max_cpi,
            "agents_alive": perfcloud.all_agents_alive(),
            "survived": completed and perfcloud.all_agents_alive(),
            "intervals_aborted": survival["intervals_aborted"],
            "caps_reconciled": survival["caps_reconciled"],
            "actuations_retried": survival["actuations_retried"],
            "samples_dropped": survival["samples_dropped"],
            "incidents": telemetry.ledger.summary_jsonable(),
        })
    else:
        metrics["survived"] = completed

    if injector is not None:
        counts = injector.fault_counts()
        metrics.update({
            "faults_injected": int(sum(counts.values())),
            "fault_trace_digest": injector.digest(),
        })
    if perfcloud is not None:
        perfcloud.close()
    return metrics

"""Build and execute one scenario world; measure its outcome.

:func:`run_world` is the pure function under the corpus: a
:class:`~repro.scenarios.spec.WorldDef` in, a flat metrics mapping out.
It takes two steps.  :func:`execute_world` builds the world through
:func:`~repro.experiments.harness.build_testbed` — the same builder as
the figures — then adds what only scenarios declare (bystander apps,
timed antagonists, iperf pairs, faults, policy, jobs and traffic), runs
it and returns the live objects as a :class:`WorldRun`;
:func:`world_metrics` reads the metrics off them.  ``repro chaos`` runs
its world through :func:`execute_world` too.

Everything in between is driven from the definition and the simulator's
seeded RNG streams, so equal definitions produce byte-identical metrics
in any process (what the determinism tests and the result cache rely
on).

The metric names produced here are the vocabulary scenario expectations
are written in; ``docs/SCENARIOS.md`` documents each one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.perfcloud import PerfCloud
from repro.experiments.harness import (
    Testbed,
    TestbedConfig,
    antagonist_vm_name,
    build_testbed,
    run_until,
)
from repro.faults.injector import FaultInjector
from repro.hardware.specs import HostSpec, NicSpec, R630
from repro.obs import Telemetry
from repro.scenarios.spec import (
    AntagonistDef,
    HostDef,
    ScenarioError,
    WorldDef,
)
from repro.virt.vm import Priority
from repro.workloads.antagonists import AdaptiveFio, IperfStream
from repro.workloads.datagen import sparkbench_synthetic, teragen, wikipedia
from repro.workloads.mix import (
    JobRequest,
    diurnal_mix,
    facebook_like_mix,
    flash_crowd_mix,
)
from repro.workloads.puma import PUMA_BENCHMARKS
from repro.workloads.sparkbench import SPARKBENCH_BENCHMARKS

__all__ = ["WorldRun", "antagonist_names", "build_host_spec", "execute_world",
           "run_world", "world_metrics"]


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
    base = a.name
    if base is None:
        stems = ["iperf" if x.kind == "iperf-pair" else x.kind
                 for x in all_defs]
        base = antagonist_vm_name(stems, all_defs.index(a))
    if a.kind == "iperf-pair":
        return (f"{base}-a", f"{base}-b")
    return (base,)


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


def _at(sim, t: float, fn, name: str) -> None:
    """Call ``fn`` now, or at sim time ``t`` when that is in the future."""
    if t <= 0:
        fn()
    else:
        sim.schedule_at(t, fn, name=name)


def _submit_jobs(world: WorldDef, testbed: Testbed) -> List[Dict[str, Any]]:
    """Schedule the explicit jobs, then the traffic mix; one
    ``{"job", "victim"}`` slot per job, filled in at submit time."""
    jobtracker, spark = testbed.jobtracker, testbed.spark
    job_slots: List[Dict[str, Any]] = []
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

        _at(testbed.sim, jdef.submit_at, submit, f"submit-{jdef.benchmark}")

    for req in _traffic_requests(world):
        slot = {"job": None, "victim": False}
        job_slots.append(slot)

        def submit(req=req, slot=slot):
            if req.kind == "mapreduce":
                spec = PUMA_BENCHMARKS[req.benchmark]()
                slot["job"] = jobtracker.submit(spec, req.dataset,
                                                num_reducers=req.num_reducers)
            else:
                spec = SPARKBENCH_BENCHMARKS[req.benchmark]()
                slot["job"] = spark.submit(spec, req.dataset)

        _at(testbed.sim, req.submit_time, submit, f"submit-{req.benchmark}")
    return job_slots


def _jcts(slots: List[Dict[str, Any]]) -> List[float]:
    """Completion times of the finished jobs among ``slots``."""
    return [float(s["job"].completion_time) for s in slots
            if s["job"] is not None and s["job"].completion_time is not None]


def _boot_iperf_pair(testbed: Testbed, adef: AntagonistDef,
                     names: Tuple[str, ...]) -> None:
    params = dict(adef.params)
    rate = float(params.pop("rate_gbps", 9.0))
    streams = int(params.pop("streams", 16))
    if params:
        raise ScenarioError(
            "antagonist.iperf-pair.params",
            f"unknown params {sorted(params)} (known: rate_gbps, streams)",
        )
    hosts = list(testbed.cluster.hosts)
    vm_a = testbed.cloud.boot(names[0], host=hosts[adef.host])
    vm_b = testbed.cloud.boot(names[1], host=hosts[adef.peer_host])

    def attach_pair():
        for vm, peer in ((vm_a, names[1]), (vm_b, names[0])):
            vm.attach_workload(IperfStream(
                peer_vm=peer, rate_gbps=rate, streams=streams,
            ))

    _at(testbed.sim, adef.start_s, attach_pair, f"attach-{names[0]}")


@dataclass
class WorldRun:
    """The live objects of one executed world."""

    world: WorldDef
    testbed: Testbed
    injector: Optional[FaultInjector]
    perfcloud: Optional[PerfCloud]
    #: One ``{"job", "victim"}`` slot per submitted job, in submit order.
    job_slots: List[Dict[str, Any]]
    #: VM names of the antagonists declared guilty (ground truth).
    guilty: List[str]
    #: Every job finished within the horizon.
    completed: bool


def execute_world(world: WorldDef) -> WorldRun:
    """Build ``world`` through :func:`build_testbed`, run it until every
    job is done (or the horizon) plus the cooldown; return the live
    objects."""
    wl = world.workload
    testbed = build_testbed(TestbedConfig(
        seed=world.seed, dt=world.dt, num_hosts=len(world.hosts),
        num_workers=wl.workers, framework=wl.framework,
        host_specs=[build_host_spec(h) for h in world.hosts],
        scheduler_policy=wl.scheduler_policy, app_id=wl.app_id,
    ))
    hosts = list(testbed.cluster.hosts)
    for app_id, count in wl.bystander_apps:
        for i in range(count):
            testbed.cloud.boot(f"{app_id}{i:03d}", "m1.large",
                               priority=Priority.HIGH, app_id=app_id,
                               host=hosts[i % len(hosts)])

    guilty: List[str] = []
    for adef in world.antagonists:
        names = antagonist_names(adef, world.antagonists)
        if adef.kind == "iperf-pair":
            _boot_iperf_pair(testbed, adef, names)
        else:
            try:
                testbed.add_antagonist(
                    names[0], adef.kind, host=hosts[adef.host],
                    params=adef.params, start_s=adef.start_s,
                )
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"antagonist.{adef.kind}",
                                    str(exc)) from exc
        if adef.guilty:
            guilty.extend(names)

    injector = None
    if world.faults is not None:
        injector = FaultInjector(testbed.sim, world.faults,
                                 cluster=testbed.cluster)
    perfcloud: Optional[PerfCloud] = None
    if world.policy.kind == "perfcloud":
        # Ledger-only telemetry: incident lifecycles cost one dict update
        # per deviating interval and feed the scored metrics; spans stay
        # off — scenario runs don't need per-interval timing.
        perfcloud = testbed.deploy_perfcloud(
            world.policy.build_config(), fault_injector=injector,
            telemetry=Telemetry(ledger=True, spans=False),
        )

    job_slots = _submit_jobs(world, testbed)
    if not job_slots:
        raise ScenarioError("world.workload.jobs", "world submits no jobs")
    completed = run_until(
        testbed.sim, lambda: len(_jcts(job_slots)) == len(job_slots),
        world.horizon,
    )
    if world.cooldown_s > 0:
        testbed.run(world.cooldown_s)
    return WorldRun(world=world, testbed=testbed, injector=injector,
                    perfcloud=perfcloud, job_slots=job_slots, guilty=guilty,
                    completed=completed)


def world_metrics(run: WorldRun) -> Dict[str, Any]:
    """The outcome metrics of an executed world."""
    job_slots, completed = run.job_slots, run.completed
    perfcloud, injector = run.perfcloud, run.injector
    jcts = _jcts(job_slots)
    victims = [s for s in job_slots if s["victim"]] or job_slots[:1]
    victim_jcts = _jcts(victims)
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
        "sim_now": float(run.testbed.sim.now),
        "conflicts_reported": len(run.testbed.cloud.conflict_reports),
        "adaptive_backoffs": sum(
            d.backoffs for d in run.testbed.antagonist_drivers.values()
            if isinstance(d, AdaptiveFio)
        ),
    }

    if perfcloud is not None:
        wl = run.world.workload
        actions = perfcloud.throttle_events()
        throttled = sorted({vm for (_, vm, _, cap) in actions
                            if cap is not None})
        guilty_set = set(run.guilty)
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
            "incidents": perfcloud.telemetry.ledger.summary_jsonable(),
        })
    else:
        metrics["survived"] = completed

    if injector is not None:
        counts = injector.fault_counts()
        metrics.update({
            "faults_injected": int(sum(counts.values())),
            "fault_trace_digest": injector.digest(),
        })
    return metrics


def run_world(world: WorldDef) -> Dict[str, Any]:
    """Execute one world definition; return its outcome metrics."""
    run = execute_world(world)
    metrics = world_metrics(run)
    if run.perfcloud is not None:
        run.perfcloud.close()
    return metrics

"""Testbed assembly: the one builder of every experiment world.

A :class:`TestbedConfig` declares the world (hosts, worker VMs, framework,
antagonists); :func:`build_testbed` assembles it into a :class:`Testbed`
whose fields expose every layer — so figure runners stay short and
readable.  The figures, ``repro chaos`` and every scenario world build
through it.  Antagonists come from the registry in
:mod:`~repro.workloads.antagonists`; they are attached at build time or
injected later (the large-scale runs re-randomize their placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.nova import CloudManager
from repro.core.config import PerfCloudConfig
from repro.core.perfcloud import PerfCloud
from repro.core.policies import StaticCapPolicy
from repro.frameworks.executor import CompositeDriver
from repro.frameworks.hdfs import HdfsCluster
from repro.frameworks.mapreduce.jobtracker import JobTracker
from repro.frameworks.spark.driver import SparkScheduler
from repro.frameworks.speculation import SpeculationPolicy
from repro.hardware.specs import HostSpec
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.vm import VM, Priority
from repro.workloads.antagonists import ANTAGONISTS

__all__ = ["TestbedConfig", "Testbed", "antagonist_vm_name", "build_testbed",
           "make_antagonist", "run_until"]


def make_antagonist(kind: str, **params: Any):
    """Instantiate an antagonist driver by registry name; ``params``
    override the kind's defaults."""
    if kind not in ANTAGONISTS:
        raise KeyError(f"unknown antagonist {kind!r}; know {sorted(ANTAGONISTS)}")
    _, factory = ANTAGONISTS[kind]
    return factory(**params)


def antagonist_vm_name(stems: Sequence[str], i: int) -> str:
    """VM name of the ``i``-th antagonist among ``stems`` (in boot
    order): the first ``fio`` is ``fio``, the second ``fio-2``, …"""
    n = stems[: i + 1].count(stems[i])
    return stems[i] if n == 1 else f"{stems[i]}-{n}"


@dataclass
class TestbedConfig:
    """Declarative description of one experiment world."""

    __test__ = False  # not a pytest collectable despite the Test* name

    seed: int = 0
    dt: float = 1.0
    num_hosts: int = 1
    #: Worker VMs total (spread across hosts round-robin).
    num_workers: int = 6
    framework: str = "mapreduce"  # "mapreduce" | "spark" | "both"
    #: (kind, host_index) pairs; host_index None = same host as workers 0.
    antagonists: Sequence[Tuple[str, Optional[int]]] = ()
    #: Spec *i* goes to host *i*; hosts past the end are R630s.
    host_specs: Sequence[HostSpec] = ()
    speculation: Optional[SpeculationPolicy] = None
    #: Job-ordering discipline: "fifo" (Hadoop default) or "fair".
    scheduler_policy: str = "fifo"
    app_id: str = "app"

    def __post_init__(self) -> None:
        if self.num_hosts < 1 or self.num_workers < 1:
            raise ValueError("need at least one host and one worker")
        if len(self.host_specs) > self.num_hosts:
            raise ValueError("more host specs than hosts")


@dataclass
class Testbed:
    """The assembled world."""

    __test__ = False  # not a pytest collectable despite the Test* name

    config: TestbedConfig
    sim: Simulator
    cluster: Cluster
    cloud: CloudManager
    workers: List[VM]
    hdfs: HdfsCluster
    jobtracker: Optional[JobTracker]
    spark: Optional[SparkScheduler]
    antagonist_vms: Dict[str, VM]
    antagonist_drivers: Dict[str, object]
    perfcloud: Optional[PerfCloud] = None
    static_policy: Optional[StaticCapPolicy] = None

    # ------------------------------------------------------------ modifiers
    def deploy_perfcloud(
        self,
        config: Optional[PerfCloudConfig] = None,
        *,
        controller_factory=None,
        fault_injector=None,
        resilience=None,
        telemetry=None,
    ) -> PerfCloud:
        """Deploy one node-manager agent per host (optionally with an
        alternative cap-control law for ablations, a fault injector
        between the agents and their libvirt facades, a resilience
        policy giving each agent a circuit breaker and degradation
        ladder and/or a :class:`~repro.obs.telemetry.Telemetry` recording the
        incident ledger and control-interval spans)."""
        self.perfcloud = PerfCloud(
            self.sim, self.cloud, config, controller_factory=controller_factory,
            fault_injector=fault_injector, resilience=resilience,
            telemetry=telemetry,
        )
        return self.perfcloud

    def add_antagonist(
        self, name: str, kind: str, host: Optional[str] = None, *,
        params: Sequence[Tuple[str, Any]] = (), start_s: float = 0.0,
    ) -> VM:
        """Boot one more antagonist VM of a registry ``kind``; ``params``
        override its driver defaults, and the driver attaches at sim time
        ``start_s``."""
        flavor, _ = ANTAGONISTS[kind]
        vm = self.cloud.boot(
            name, flavor, priority=Priority.LOW, host=host
        )
        driver = make_antagonist(kind, **dict(params))
        if start_s <= 0:
            vm.attach_workload(driver)
        else:
            self.sim.schedule_at(start_s, lambda: vm.attach_workload(driver),
                                 name=f"attach-{name}")
        self.antagonist_vms[name] = vm
        self.antagonist_drivers[name] = driver
        return vm

    def node_manager(self, host: str = None):
        """The deployed agent on ``host`` (default: the first host)."""
        if self.perfcloud is None:
            raise RuntimeError("PerfCloud not deployed on this testbed")
        host = host or sorted(self.cluster.hosts)[0]
        return self.perfcloud.node_managers[host]

    # --------------------------------------------------------------- helpers
    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run_for(duration)

    def host_of_workers(self) -> str:
        """Host of the first worker (the single-host scenarios' host)."""
        return self.workers[0].host_name


def build_testbed(config: TestbedConfig) -> Testbed:
    """Assemble a testbed from its config."""
    sim = Simulator(dt=config.dt, seed=config.seed)
    cluster = Cluster(sim)
    for i in range(config.num_hosts):
        spec = config.host_specs[i] if i < len(config.host_specs) else None
        cluster.add_host(f"server{i:02d}", spec=spec)
    cloud = CloudManager(cluster)

    hosts = list(cluster.hosts)  # index order, not name order
    workers: List[VM] = []
    for i in range(config.num_workers):
        workers.append(
            cloud.boot(
                f"worker{i:03d}",
                "m1.large",
                priority=Priority.HIGH,
                app_id=config.app_id,
                host=hosts[i % len(hosts)],
            )
        )
    hdfs = HdfsCluster(
        [w.name for w in workers], sim.rng.stream("hdfs"), replication=3
    )

    jobtracker = None
    spark = None
    if config.framework in ("mapreduce", "both"):
        jobtracker = JobTracker(
            sim, workers, hdfs, speculation=config.speculation,
            policy=config.scheduler_policy,
        )
    if config.framework in ("spark", "both"):
        spark = SparkScheduler(
            sim, workers, hdfs, speculation=config.speculation, name="spark",
            policy=config.scheduler_policy,
        )
    if jobtracker is None and spark is None:
        raise ValueError(f"unknown framework {config.framework!r}")
    if jobtracker is not None and spark is not None:
        # Both slave daemons colocate on every worker node (paper §IV-A):
        # multiplex the two executors onto each VM.
        for vm in workers:
            vm.attach_workload(
                CompositeDriver(
                    [jobtracker.executors[vm.name], spark.executors[vm.name]]
                )
            )

    testbed = Testbed(
        config=config,
        sim=sim,
        cluster=cluster,
        cloud=cloud,
        workers=workers,
        hdfs=hdfs,
        jobtracker=jobtracker,
        spark=spark,
        antagonist_vms={},
        antagonist_drivers={},
    )
    kinds = [kind for kind, _ in config.antagonists]
    for i, (kind, host_idx) in enumerate(config.antagonists):
        testbed.add_antagonist(antagonist_vm_name(kinds, i), kind,
                               host=hosts[(host_idx or 0) % len(hosts)])
    return testbed


def run_until(
    sim: Simulator,
    predicate: Callable[[], bool],
    horizon: float,
    check_every: float = 5.0,
) -> bool:
    """Advance the simulation until ``predicate()`` or ``horizon``.

    Returns True if the predicate was satisfied.
    """
    while sim.now < horizon:
        if predicate():
            return True
        sim.run(min(sim.now + check_every, horizon))
    return predicate()

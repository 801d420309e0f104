"""The batched host read equals the per-domain reads it replaces.

``Connection.getAllDomainStats()`` reads every guest's counters in one
call.  Two properties pin it:

* on the bare facade, each record equals ``{**blkioStats(),
  **perfStats(), **cpuStats()}`` of the same domain, in
  ``listAllDomains()`` order, bit for bit, on a stepped multi-host
  cluster with random workloads and caps;
* behind the fault injector and a circuit breaker, a
  :class:`~repro.core.monitor.PerformanceMonitor` (one batched read per
  pass) and :class:`~repro.bench.naive.NaiveMonitor` (three per-domain
  calls per VM) in twin seeded worlds see the same samples, draw the
  same faults in the same order and drive the breaker through the same
  states.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.naive import NaiveMonitor
from repro.cloud.nova import CloudManager
from repro.core.config import PerfCloudConfig
from repro.core.monitor import PerformanceMonitor
from repro.faults import FaultInjector, FaultPlan
from repro.faults.spec import CrashEvent
from repro.resilience.breaker import (
    BreakerPolicy, CircuitBreaker, GuardedConnection,
)
from repro.resilience.ladder import ResiliencePolicy
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.libvirt_api import Domain
from repro.workloads.antagonists import (
    FioRandomRead, StreamBenchmark, SysbenchCpu, SysbenchOltp,
)

_DRIVERS = (
    None,
    lambda: FioRandomRead(),
    lambda: FioRandomRead(on_s=12.0, off_s=8.0),
    lambda: StreamBenchmark(threads=4),
    lambda: SysbenchCpu(),
    lambda: SysbenchOltp(duration_s=None),
)

_guest = st.tuples(
    st.sampled_from(range(len(_DRIVERS))),
    st.sampled_from(("m1.small", "m1.large", "m1.2xlarge")),
    st.one_of(st.none(), st.integers(min_value=1000, max_value=100_000)),
    st.one_of(st.none(), st.floats(min_value=50.0, max_value=5000.0)),
)


def _bits(record):
    return [(k, type(v), float(v).hex()) for k, v in record.items()]


@settings(max_examples=25, deadline=None)
@given(
    hosts=st.lists(st.lists(_guest, max_size=5), min_size=1, max_size=3),
    steps=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_all_domain_stats_equal_per_domain_reads(hosts, steps, seed):
    sim = Simulator(dt=1.0, seed=seed)
    cluster = Cluster(sim)
    cloud = CloudManager(cluster)
    for h, guests in enumerate(hosts):
        host = f"h{h}"
        cluster.add_host(host)
        # Names out of boot order, so the facade's ordering is exercised.
        for i, (driver, flavor, quota, iops) in enumerate(guests):
            vm = cloud.boot(f"vm{(7 * i) % 5}-{i}-{h}", flavor, host=host)
            if _DRIVERS[driver] is not None:
                vm.attach_workload(_DRIVERS[driver]())
            dom = cloud.connection(host).lookupByName(vm.name)
            if quota is not None:
                dom.setSchedulerParameters({"vcpu_quota": quota})
            if iops is not None:
                dom.setBlockIoTune("vda", {"total_iops_sec": iops})
    for step in steps:
        sim.run_for(float(step))
        for h in range(len(hosts)):
            conn = cloud.connection(f"h{h}")
            batched = conn.getAllDomainStats()
            domains = conn.listAllDomains()
            assert [d.name() for d, _ in batched] == [d.name() for d in domains]
            for (dom, record), ref in zip(batched, domains):
                assert type(dom) is Domain
                per_call = {**ref.blkioStats(), **ref.perfStats(), **ref.cpuStats()}
                assert _bits(record) == _bits(per_call)


# --------------------------------------------------- faults and the breaker

_POLICY = ResiliencePolicy(breaker=BreakerPolicy(
    failure_threshold=4, window_s=20.0, open_cooldown_s=8.0, close_after=2,
))


def _world(seed, plan, monitor_cls, intervals):
    """One faulted, breaker-guarded host sampled for ``intervals`` passes.

    Returns (per-pass samples as tuples, injector, breaker, monitor)."""
    sim = Simulator(dt=1.0, seed=seed)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    drivers = (SysbenchOltp(duration_s=None), FioRandomRead(on_s=20.0, off_s=10.0),
               StreamBenchmark(threads=4), SysbenchCpu())
    for i, driver in enumerate(drivers):
        cloud.boot(f"vm{i}", host="h0").attach_workload(driver)
    cloud.boot("idle", host="h0")
    injector = FaultInjector(sim, plan, cluster=cluster)
    breaker = CircuitBreaker("h0", _POLICY.breaker)
    conn = GuardedConnection(injector.wrap(cloud.connection("h0")), breaker,
                             lambda: sim.now)
    config = PerfCloudConfig()
    monitor = monitor_cls(conn, config)
    passes = []
    for _ in range(intervals):
        sim.run_for(config.interval_s)
        out = monitor.sample(sim.now)
        if isinstance(monitor, PerformanceMonitor):
            out = {vm: (s.iowait_ratio, s.cpi, s.io_bytes_ps, s.llc_miss_rate,
                        s.cpu_usage_cores) for vm, s in out.items()}
        passes.append((out, breaker.snapshot()))
    return passes, injector, breaker, monitor


def _plan(sampling_p, freeze_p, reset_p, connection_p, crash_at, restart_after):
    return FaultPlan(
        sampling_failure_p=sampling_p, freeze_p=freeze_p, freeze_duration_s=10.0,
        counter_reset_p=reset_p, connection_failure_p=connection_p,
        crashes=(CrashEvent(vm="vm1", at_s=crash_at, restart_after_s=restart_after),),
    )


_REFERENCE = dict(sampling_p=0.15, freeze_p=0.1, reset_p=0.1, connection_p=0.1,
                  crash_at=40.0, restart_after=25.0)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    sampling_p=st.sampled_from((0.0, 0.05, 0.15, 0.3)),
    freeze_p=st.sampled_from((0.0, 0.1, 0.3)),
    reset_p=st.sampled_from((0.0, 0.1, 0.3)),
    connection_p=st.sampled_from((0.0, 0.05, 0.2)),
    crash_at=st.sampled_from((10.0, 40.0, 90.0)),
    restart_after=st.sampled_from((5.0, 25.0)),
)
@example(seed=5, **_REFERENCE)
def test_batched_monitor_keeps_per_read_faults_and_breaker(seed, **rates):
    plan = _plan(**rates)
    got, inj, breaker, mon = _world(seed, plan, PerformanceMonitor, 30)
    want, naive_inj, naive_breaker, naive = _world(seed, plan, NaiveMonitor, 30)
    assert got == want
    assert inj.trace == naive_inj.trace
    assert inj.digest() == naive_inj.digest()
    assert breaker.snapshot() == naive_breaker.snapshot()
    assert (mon.stats.list_failures, mon.stats.samples_dropped,
            mon.stats.counter_resets) == (
        naive.list_failures, naive.samples_dropped, naive.counter_resets)


def test_reference_twin_worlds_exercise_every_fault_and_the_breaker():
    """The pinned example above reaches every fault kind and trips the
    breaker, so its equality is not vacuous."""
    _, inj, breaker, mon = _world(5, _plan(**_REFERENCE), PerformanceMonitor, 30)
    kinds = set(inj.fault_counts())
    assert {"call-failure", "connection-failure", "freeze", "counter-reset",
            "crash", "restart", "down-call"} <= kinds
    assert breaker.opens > 0 and breaker.refused > 0
    assert mon.stats.samples_dropped > 0 and mon.stats.list_failures > 0
    assert mon.stats.counter_resets > 0

"""Monitor hardening: degraded telemetry costs samples, never sanity.

Pins the per-VM fault isolation, the counter-reset cursor restart, the
departed-VM history purge and the bounded retention window of
:class:`~repro.core.monitor.PerformanceMonitor`, and checks its sampling
loop against the :class:`~repro.bench.naive.NaiveMonitor` oracle over
scripted counters.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.naive import NaiveMonitor
from repro.cloud.nova import CloudManager
from repro.core.config import PerfCloudConfig
from repro.core.monitor import PLANE_METRICS, PerformanceMonitor
from repro.faults import FaultInjector, FaultPlan
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.libvirt_api import LibvirtError, per_domain_stats
from repro.workloads.antagonists import FioRandomRead


def make_monitor(config=None, plan=None, vms=("a", "b")):
    sim = Simulator(dt=1.0, seed=0)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    for name in vms:
        cloud.boot(name, "m1.large", host="h0").attach_workload(FioRandomRead())
    injector = FaultInjector(sim, plan or FaultPlan(), cluster=cluster)
    conn = injector.wrap(cloud.connection("h0"))
    monitor = PerformanceMonitor(conn, config or PerfCloudConfig())
    return sim, cloud, injector, monitor


def advance_and_sample(sim, monitor, passes, step=5.0):
    out = None
    for _ in range(passes):
        sim.run_for(step)
        out = monitor.sample(sim.now)
    return out


def test_one_vm_failing_does_not_cost_the_pass():
    sim, cloud, injector, monitor = make_monitor()
    advance_and_sample(sim, monitor, 2)
    injector.break_call("a", "blkioStats")
    out = advance_and_sample(sim, monitor, 1)
    assert "a" not in out and "b" in out  # fault isolated to its VM
    assert monitor.stats.samples_dropped == 1
    injector.heal("a", "blkioStats")
    out = advance_and_sample(sim, monitor, 1)
    assert "a" in out and "b" in out


def test_failed_listing_costs_one_pass_without_purging():
    sim, cloud, injector, monitor = make_monitor()
    advance_and_sample(sim, monitor, 2)
    assert set(monitor.history) == {"a", "b"}
    # FaultPlan is frozen; swap the injector's plan for a wedged listing.
    injector.plan = FaultPlan(connection_failure_p=1.0)
    out = advance_and_sample(sim, monitor, 1)
    assert out == {}
    assert monitor.stats.list_failures == 1
    # Inventory unknown: nothing was purged.
    assert set(monitor.history) == {"a", "b"}


@pytest.mark.parametrize("fault", ["listing", "read"])
def test_rate_after_a_missed_sample_spans_every_interval(fault):
    """A delta covering two intervals is divided by both: a lost pass
    must not read as a doubled I/O rate."""
    config = PerfCloudConfig(ewma_alpha=1.0)  # raw interval rates
    sim, cloud, injector, monitor = make_monitor(config=config, vms=("a",))
    steady = advance_and_sample(sim, monitor, 4)["a"]
    plan = injector.plan
    if fault == "listing":
        injector.plan = FaultPlan(connection_failure_p=1.0)
    else:
        injector.break_call("a", "blkioStats")
    assert "a" not in advance_and_sample(sim, monitor, 1)
    injector.plan = plan
    injector.heal("a", "blkioStats")
    after = advance_and_sample(sim, monitor, 1)["a"]
    assert after.io_bytes_ps == pytest.approx(steady.io_bytes_ps, rel=0.05)
    assert after.cpu_usage_cores == pytest.approx(steady.cpu_usage_cores, rel=0.05)


def test_counter_reset_restarts_cursor_not_garbage():
    sim, cloud, injector, monitor = make_monitor()
    advance_and_sample(sim, monitor, 3)
    injector.mark_reset("a")  # guest reboot: counters run backwards
    out = advance_and_sample(sim, monitor, 1)
    assert "a" not in out  # the reset interval is swallowed...
    assert monitor.stats.counter_resets == 1
    out = advance_and_sample(sim, monitor, 1)
    assert "a" in out  # ...and the cursor restarts cleanly
    series = monitor.history["a"]["io_bytes_ps"].values()
    assert all(v >= 0.0 for v in series)  # no negative-delta poisoning


def test_departed_vm_history_is_purged():
    sim, cloud, injector, monitor = make_monitor()
    advance_and_sample(sim, monitor, 2)
    assert "a" in monitor.history
    cloud.delete("a")
    advance_and_sample(sim, monitor, 1)
    assert "a" not in monitor.history
    assert "a" not in monitor._state
    assert monitor.stats.histories_purged == 1
    assert "b" in monitor.history  # the survivor keeps its history


def test_retention_window_bounds_history():
    config = PerfCloudConfig(history_retention_s=20.0)
    sim, cloud, injector, monitor = make_monitor(config=config)
    advance_and_sample(sim, monitor, 12)  # 60 s of samples
    assert monitor.stats.samples_pruned > 0
    for series_by_metric in monitor.history.values():
        for ts in series_by_metric.values():
            times = ts.times()
            assert len(times) == 0 or times[0] >= sim.now - 20.0 - 1e-9


def test_unbounded_retention_by_default():
    sim, cloud, injector, monitor = make_monitor()
    advance_and_sample(sim, monitor, 12)
    assert monitor.stats.samples_pruned == 0
    assert len(monitor.history["a"]["io_bytes_ps"]) >= 10


def test_config_rejects_bad_hardening_knobs():
    with pytest.raises(ValueError):
        PerfCloudConfig(actuation_retries=-1)
    with pytest.raises(ValueError):
        PerfCloudConfig(actuation_backoff_s=0.0)
    with pytest.raises(ValueError):
        PerfCloudConfig(history_retention_s=-5.0)


# ------------------------------------------------- scripted-counter oracle

#: The facade's counter groups, in the order the monitor reads them.
_GROUPS = (
    ("blkioStats", ("io_serviced", "io_wait_time_ms", "io_service_bytes")),
    ("perfStats", ("cycles", "instructions", "llc_references", "llc_misses")),
    ("cpuStats", ("cpu_time_core_seconds",)),
)
_COUNTERS = tuple(k for _, keys in _GROUPS for k in keys)
_VMS = ("v0", "v1", "v2")


class _ScriptedDomain:
    def __init__(self, conn, name):
        self._conn = conn
        self._name = name

    def name(self):
        return self._name

    def __getattr__(self, call):
        keys = dict(_GROUPS).get(call)
        if keys is None:
            raise AttributeError(call)

        def read():
            counters, failing = self._conn.step[self._name]
            if failing == call:
                raise LibvirtError(f"scripted {call} failure")
            return {k: counters[k] for k in keys}
        return read


class _ScriptedConnection:
    """Serves one scripted interval: ``step`` maps each listed VM to its
    cumulative counters and the stats call that fails (or None); a
    ``None`` step fails the listing."""

    step = None

    def listAllDomains(self):
        if self.step is None:
            raise LibvirtError("scripted listing failure")
        return [_ScriptedDomain(self, name) for name in self.step]

    def getAllDomainStats(self):
        return per_domain_stats(self.listAllDomains())


_increment = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=10**9).map(float),
    st.floats(min_value=1e-3, max_value=1e7, allow_nan=False),
    # Tiny moves, so a reset can leave deltas just below zero.
    st.floats(min_value=1e-8, max_value=1e-3, allow_nan=False),
)

#: Per VM and interval: what happens, and how far each counter moves.
_vm_event = st.tuples(
    st.sampled_from(("ok",) * 6 + ("absent", "reset", "blkioStats",
                                   "perfStats", "cpuStats")),
    st.tuples(*[_increment for _ in _COUNTERS]),
)

_script = st.lists(
    st.tuples(
        st.sampled_from((False,) * 9 + (True,)),  # listing fails?
        st.tuples(*[_vm_event for _ in _VMS]),
    ),
    min_size=1,
    max_size=16,
)


def _steps(*events):
    return [(False, tuple(ev for _ in _VMS)) for ev in events]


#: Small counters whose reset leaves every delta barely below zero.
_TINY_RESET = _steps(("ok", (1e-4,) * len(_COUNTERS)),
                     ("ok", (1e-4,) * len(_COUNTERS)),
                     ("reset", (1e-5,) * len(_COUNTERS)),
                     ("ok", (1e-4,) * len(_COUNTERS)))


@settings(max_examples=80, deadline=None)
@given(script=_script)
@example(script=_TINY_RESET)
def test_monitor_matches_naive_loop_over_scripted_counters(script):
    """First observations, counter resets, dropped reads, failed
    listings, departures and zero-instruction intervals: the monitor's
    samples, plane columns and counters equal the naive loop's."""
    config = PerfCloudConfig()
    conn = _ScriptedConnection()
    monitor = PerformanceMonitor(conn, config)
    oracle = NaiveMonitor(conn, config)
    totals = {vm: dict.fromkeys(_COUNTERS, 0.0) for vm in _VMS}
    for k, (list_fails, events) in enumerate(script):
        step = {}
        for vm, (event, increments) in zip(_VMS, events):
            if event == "absent":
                continue
            counters = totals[vm]
            for key, inc in zip(_COUNTERS, increments):
                # A reset restarts every counter from zero.
                counters[key] = inc if event == "reset" else counters[key] + inc
            step[vm] = (dict(counters), event if event.endswith("Stats") else None)
        conn.step = None if list_fails else step
        now = config.interval_s * (k + 1)
        got = monitor.sample(now)
        want = oracle.sample(now)
        assert {vm: (s.iowait_ratio, s.cpi, s.io_bytes_ps, s.llc_miss_rate,
                     s.cpu_usage_cores) for vm, s in got.items()} == want
        for vm, values in want.items():
            for metric, value in zip(PLANE_METRICS, values):
                series = monitor.history[vm][metric]
                if value is None:
                    assert series.last_time != now
                else:
                    assert (series.last_time, series.last_value) == (now, value)
    stats = monitor.stats
    assert (stats.list_failures, stats.samples_dropped, stats.counter_resets) == (
        oracle.list_failures, oracle.samples_dropped, oracle.counter_resets)


@pytest.mark.parametrize("counter", _COUNTERS)
def test_any_single_counter_running_backwards_restarts_the_cursor(counter):
    """Every counter takes part in the reset check, not only the ones the
    metrics are computed from (llc_references feeds none of them)."""
    config = PerfCloudConfig()
    conn = _ScriptedConnection()
    monitor = PerformanceMonitor(conn, config)
    oracle = NaiveMonitor(conn, config)
    counters = dict.fromkeys(_COUNTERS, 0.0)
    for k in range(4):
        for key in _COUNTERS:
            counters[key] += 100.0
        if k == 2:
            counters[counter] -= 250.0  # only this one runs backwards
        conn.step = {"v0": (dict(counters), None)}
        got = monitor.sample(config.interval_s * (k + 1))
        want = oracle.sample(config.interval_s * (k + 1))
        assert set(got) == set(want) == ({"v0"} if k in (1, 3) else set())
    assert monitor.stats.counter_resets == oracle.counter_resets == 1

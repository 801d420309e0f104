"""Unit tests for the per-VM slot executor."""

import pytest

from repro.frameworks.executor import (
    ExecutorDriver,
    _burst_multiplier,
    blend_profiles,
)
from repro.frameworks.jobs import Job, Task, TaskWork
from repro.hardware.resources import PerfProfile, ResourceGrant


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_attempt(cpu=4.0, read=10e6, write=0.0, net=None, vm="vm0",
                 nominal=5.0, profile=None):
    job = Job("j", "bench", "mapreduce", 0.0)
    if profile is not None:
        job.profile = profile
    work = TaskWork(
        cpu_coresec=cpu,
        read_bytes=read,
        read_ops=read / 1e4 if read else 0.0,
        write_bytes=write,
        write_ops=write / 1e4 if write else 0.0,
        net_in=dict(net or {}),
        llc_ws_mb=5.0,
        mem_bw_gbps=0.5,
    )
    task = Task(f"t{id(work)}", job, "map", work)
    task.nominal_s = nominal
    task.read_rate_bps = 5e6
    task.write_rate_bps = 4e6
    job.add_task(task)
    return task.new_attempt(vm, now=0.0)


def test_slots_enforced():
    ex = ExecutorDriver("vm0", slots=1, clock=Clock())
    ex.launch(make_attempt())
    assert ex.free_slots == 0
    with pytest.raises(RuntimeError):
        ex.launch(make_attempt())


def test_wrong_vm_rejected():
    ex = ExecutorDriver("vm0", slots=2, clock=Clock())
    with pytest.raises(ValueError):
        ex.launch(make_attempt(vm="other"))


def test_invalid_slots():
    with pytest.raises(ValueError):
        ExecutorDriver("vm0", slots=0, clock=Clock())


def test_demand_aggregates_attempts():
    ex = ExecutorDriver("vm0", slots=2, clock=Clock())
    ex.launch(make_attempt())
    ex.launch(make_attempt())
    d = ex.demand()
    assert d.cpu_cores > 0
    assert d.read_bytes_ps > 0
    assert d.llc_ws_mb == pytest.approx(10.0)  # 5 MB per attempt
    assert d.mem_bw_gbps == pytest.approx(1.0)


def test_idle_executor_demands_nothing():
    ex = ExecutorDriver("vm0", slots=2, clock=Clock())
    assert ex.demand().is_idle
    assert not ex.finished


def test_consume_advances_and_reports_completion():
    done = []
    clock = Clock()
    ex = ExecutorDriver("vm0", slots=2, clock=clock,
                        on_attempt_done=done.append)
    attempt = make_attempt(cpu=1.0, read=1e6, nominal=1.0)
    ex.launch(attempt)
    for step in range(100):
        clock.now = float(step)
        d = ex.demand()
        grant = ResourceGrant(
            dt=1.0,
            cpu_coresec=d.cpu_cores,
            effective_coresec=d.cpu_cores,
            cpi=1.0,
            read_ops=d.read_iops,
            read_bytes=d.read_bytes_ps,
        )
        ex.consume(grant)
        if done:
            break
    assert done == [attempt]
    assert ex.running == []


def test_split_proportional_to_demand(monkeypatch):
    import repro.frameworks.executor as executor_mod

    monkeypatch.setattr(executor_mod, "_burst_multiplier", lambda *a: 1.0)
    clock = Clock()
    ex = ExecutorDriver("vm0", slots=2, clock=clock)
    # Attempt A wants 2x the read rate of attempt B.
    a = make_attempt(cpu=0.0, read=20e6, nominal=5.0)
    b = make_attempt(cpu=0.0, read=20e6, nominal=5.0)
    a.task.read_rate_bps = 10e6
    b.task.read_rate_bps = 5e6
    ex.launch(a)
    ex.launch(b)
    for step in range(2):
        clock.now = float(step)
        ex.demand()
        grant = ResourceGrant(dt=1.0, read_bytes=6e6, read_ops=600.0,
                              cpu_coresec=0.0, effective_coresec=0.0)
        ex.consume(grant)
    drained_a = 20e6 - a.rem_read_bytes
    drained_b = 20e6 - b.rem_read_bytes
    # 2:1 demand ratio -> 2:1 split, and the grant is fully distributed.
    assert drained_a == pytest.approx(2 * drained_b, rel=0.01)
    assert drained_a + drained_b == pytest.approx(12e6, rel=0.01)


def test_net_flows_in_demand_and_split():
    clock = Clock()
    ex = ExecutorDriver("vm0", slots=1, clock=clock)
    a = make_attempt(cpu=0.0, read=0.0, net={"peer1": 1e6, "peer2": 3e6})
    ex.launch(a)
    d = ex.demand()
    peers = {f.peer_vm: f for f in d.flows}
    assert set(peers) == {"peer1", "peer2"}
    assert all(f.direction == "in" for f in d.flows)
    assert peers["peer2"].bytes_per_s > peers["peer1"].bytes_per_s
    grant = ResourceGrant(dt=1.0, net_bytes={"peer1": 1e6, "peer2": 3e6})
    ex.consume(grant)
    assert a.rem_net["peer1"] == pytest.approx(0.0)
    assert a.rem_net["peer2"] == pytest.approx(0.0)


def test_kill_frees_slot():
    ex = ExecutorDriver("vm0", slots=1, clock=Clock())
    a = make_attempt()
    ex.launch(a)
    ex.kill(a)
    assert ex.free_slots == 1
    assert not a.running


def test_externally_killed_attempt_reaped_on_consume():
    ex = ExecutorDriver("vm0", slots=1, clock=Clock())
    a = make_attempt()
    ex.launch(a)
    a.kill(1.0)  # killed by scheduler, not via executor
    ex.demand()
    ex.consume(ResourceGrant(dt=1.0))
    assert ex.running == []


def _assert_no_cached_rates(ex):
    assert ex._last_rates == {}
    assert ex._last_net_rates == {}
    assert ex._pace_memo == {}


def test_reaped_and_killed_attempts_leave_no_cached_rates():
    # A parked executor is never polled, so nothing but the reap loop
    # and kill() can release a finished attempt (and its job).
    done = []
    clock = Clock()
    ex = ExecutorDriver("vm0", slots=2, clock=clock,
                        on_attempt_done=done.append)
    finisher = make_attempt(cpu=1.0, read=1e6, nominal=1.0,
                            net={"peer1": 1e6})
    victim = make_attempt(cpu=50.0, read=0.0, net={"peer1": 1e6})
    ex.launch(finisher)
    ex.launch(victim)
    d = ex.demand()
    assert set(ex._last_rates) == set(ex._last_net_rates) == {
        finisher, victim}
    ex.kill(victim)
    assert victim not in ex._last_rates
    assert victim not in ex._last_net_rates
    for step in range(100):
        clock.now = float(step)
        d = ex.demand()
        ex.consume(ResourceGrant(
            dt=1.0, cpu_coresec=d.cpu_cores, effective_coresec=d.cpu_cores,
            cpi=1.0, read_ops=d.read_iops, read_bytes=d.read_bytes_ps,
            net_bytes={f.peer_vm: f.bytes_per_s for f in d.flows},
        ))
        if done:
            break
    assert done == [finisher]
    assert ex.running == [] and ex.idle
    _assert_no_cached_rates(ex)


def test_externally_killed_attempt_leaves_no_cached_rates():
    ex = ExecutorDriver("vm0", slots=1, clock=Clock())
    a = make_attempt(net={"peer1": 1e6})
    ex.launch(a)
    ex.demand()
    a.kill(1.0)
    assert not ex.idle  # still holds the dead attempt: must be delivered
    ex.consume(ResourceGrant(dt=1.0))
    assert ex.running == [] and ex.idle
    _assert_no_cached_rates(ex)


def test_profile_blending():
    p1 = PerfProfile(base_cpi=1.0, llc_sensitivity=0.0)
    p2 = PerfProfile(base_cpi=3.0, llc_sensitivity=2.0)
    blended = blend_profiles([p1, p2], [1.0, 1.0])
    assert blended.base_cpi == pytest.approx(2.0)
    assert blended.llc_sensitivity == pytest.approx(1.0)
    assert blend_profiles([], []).base_cpi == 1.0
    assert blend_profiles([p2], [0.0]) is p2


def test_executor_profile_reflects_running_tasks():
    ex = ExecutorDriver("vm0", slots=1, clock=Clock())
    assert ex.profile.base_cpi == 1.0
    a = make_attempt(profile=PerfProfile(base_cpi=2.5))
    ex.launch(a)
    assert ex.profile.base_cpi == pytest.approx(2.5)


def test_burst_multiplier_mean_and_determinism():
    vals = [_burst_multiplier(17, t * 4.0) for t in range(2000)]
    mean = sum(vals) / len(vals)
    assert mean == pytest.approx(1.0, abs=0.08)
    assert _burst_multiplier(5, 12.0) == _burst_multiplier(5, 12.0)
    # Within one burst bucket the value is constant.
    assert _burst_multiplier(5, 0.5) == _burst_multiplier(5, 3.4)

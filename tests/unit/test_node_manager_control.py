"""Direct unit tests of the node manager's control branches."""

from types import SimpleNamespace

import pytest

from repro.cloud.nova import CloudManager
from repro.core import node_manager
from repro.core.config import PerfCloudConfig
from repro.core.monitor import VmSample
from repro.core.node_manager import NodeManager
from repro.core.shards import ShardedControlPlane
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.vm import Priority


@pytest.fixture
def nm():
    sim = Simulator(dt=1.0, seed=0)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    cloud.boot("victim", host="h0", priority=Priority.HIGH, app_id="app")
    cloud.boot("bad", host="h0", priority=Priority.LOW)
    return NodeManager(sim, "h0", cloud, PerfCloudConfig(), autostart=False)


def sample(io_bps=5e6, cores=2.0):
    return {
        "bad": VmSample(time=0.0, iowait_ratio=0.0, cpi=1.0,
                        io_bytes_ps=io_bps, llc_miss_rate=None,
                        cpu_usage_cores=cores),
    }


def test_cap_created_only_under_contention(nm):
    nm._control("io", {"bad"}, False, sample(), now=5.0)
    assert nm.cap_states == {}
    nm._control("io", {"bad"}, True, sample(), now=10.0)
    state = nm.cap_states[("bad", "io")]
    assert state.cap == pytest.approx(0.2)
    assert state.base == pytest.approx(5e6)


def test_cap_not_created_without_identification(nm):
    nm._control("io", set(), True, sample(), now=5.0)
    assert nm.cap_states == {}


def test_cap_keeps_recovering_after_antagonist_ages_out(nm):
    nm._control("io", {"bad"}, True, sample(), now=5.0)
    cap0 = nm.cap_states[("bad", "io")].cap
    # The suspect drops off the antagonist list; recovery must continue.
    caps = [cap0]
    for t in range(10, 80, 5):
        nm._control("io", set(), False, sample(), now=float(t))
        state = nm.cap_states.get(("bad", "io"))
        if state is None:
            break  # released and pruned
        caps.append(state.cap)
    assert caps[-1] > caps[0]
    assert ("bad", "io") not in nm.cap_states  # pruned once released


def test_released_antagonist_state_retained_while_still_identified(nm):
    nm._control("cpu", {"bad"}, True, sample(), now=5.0)
    for t in range(10, 200, 5):
        nm._control("cpu", {"bad"}, False, sample(), now=float(t))
    # Still identified: state retained (released), ready to re-engage.
    state = nm.cap_states.get(("bad", "cpu"))
    assert state is not None and state.released
    nm._control("cpu", {"bad"}, True, sample(), now=300.0)
    assert not nm.cap_states[("bad", "cpu")].released


def test_actuation_reaches_cgroup_and_actions_log(nm):
    nm._control("io", {"bad"}, True, sample(), now=5.0)
    vm = nm.cloud.cluster.vms["bad"]
    assert vm.cgroup.throttle.bps_cap == pytest.approx(0.2 * 5e6)
    assert nm.actions[-1][1] == "bad"
    nm._control("cpu", {"bad"}, True, sample(), now=10.0)
    assert vm.cgroup.cpu.quota_cores is not None


def test_zero_usage_suspect_not_capped(nm):
    nm._control("io", {"bad"}, True, sample(io_bps=0.0), now=5.0)
    assert nm.cap_states == {}


def test_missing_sample_suspect_not_capped(nm):
    nm._control("io", {"ghost"}, True, {}, now=5.0)
    assert nm.cap_states == {}


def _expected_ticket_inventory(cloud, host, monitor):
    """(app_members, suspects, do_identify) from a fresh inventory query."""
    instances = cloud.instances_on_host(host)
    members = {}
    for info in instances:
        if info.is_high_priority and info.app_id:
            members.setdefault(info.app_id, []).append(info.name)
    low = [i.name for i in instances if not i.is_high_priority]
    return (
        tuple((app, tuple(names)) for app, names in members.items()),
        tuple(name for name in low if name in monitor.history),
        bool(low),
    )


def test_placement_changes_reach_the_agent_in_the_same_interval(monkeypatch):
    """Boot, destroy and migrate each bump the host's placement version,
    and the next interval's ticket matches a fresh inventory query."""
    tickets = []
    real = node_manager.compute_verdict

    def spy(detector, identifier, plane, ticket, *rest):
        tickets.append(ticket)
        return real(detector, identifier, plane, ticket, *rest)

    monkeypatch.setattr(node_manager, "compute_verdict", spy)
    sim = Simulator(dt=1.0, seed=0)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cluster.add_host("h1")
    cloud = CloudManager(cluster)
    cloud.boot("a0", host="h0", priority=Priority.HIGH, app_id="a")
    cloud.boot("a1", host="h0", priority=Priority.HIGH, app_id="a")
    agents = {h: NodeManager(sim, h, cloud, PerfCloudConfig(), autostart=False)
              for h in ("h0", "h1")}
    changes = [  # (change, whether it moves a VM)
        (lambda: cloud.boot("low0", host="h0"), True),
        (lambda: cloud.boot("b0", host="h1", priority=Priority.HIGH,
                            app_id="b"), True),
        (lambda: cloud.migrate("low0", "h1"), True),
        (lambda: cloud.boot("low1", host="h0"), True),
        (lambda: cloud.migrate("a1", "h1"), True),
        (lambda: cloud.delete("low1"), True),
        (lambda: cloud.boot("low1", host="h1"), True),
        (lambda: cloud.migrate("low1", "h1"), False),  # already there
        (lambda: cloud.delete("a0"), True),
    ]
    for change, moves in [(None, False)] + changes:
        if change is not None:
            before = {h: cloud.placement_version(h) for h in agents}
            change()
            after = {h: cloud.placement_version(h) for h in agents}
            assert (after != before) == moves
        sim.run_for(5.0)
        for host, nm in agents.items():
            tickets.clear()
            nm.control_interval()
            want = _expected_ticket_inventory(cloud, host, nm.monitor)
            if not want[0]:
                assert not tickets
                continue
            [ticket] = tickets
            assert (ticket.app_members, ticket.suspects, ticket.do_identify) == want


def test_departed_antagonist_loses_its_ttl():
    """An identified antagonist that leaves the host takes its TTL with
    it, so an idle VM booted under the same name is not judged an
    antagonist from the TTL alone."""
    from repro.workloads.antagonists import FioRandomRead, SysbenchCpu, SysbenchOltp

    sim = Simulator(dt=1.0, seed=0)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    for j, driver in enumerate((SysbenchOltp(duration_s=None),
                                SysbenchOltp(duration_s=None), SysbenchCpu())):
        cloud.boot(f"app-{j}", host="h0", priority=Priority.HIGH,
                   app_id="victim").attach_workload(driver)
    cloud.boot("ant", host="h0").attach_workload(FioRandomRead())
    nm = NodeManager(sim, "h0", cloud, PerfCloudConfig(), autostart=False)

    def interval():
        sim.run_for(nm.config.interval_s)
        nm.control_interval()

    for _ in range(40):
        interval()
        if "ant" in nm.identifier.remembered():
            break
    assert "ant" in nm.identifier.remembered()
    cloud.delete("ant")
    interval()
    assert "ant" not in nm.identifier.remembered()
    cloud.boot("ant", host="h0")  # idle namesake
    interval()
    for resource in ("io", "cpu"):
        assert nm.identifier.judge(resource, {"ant": 0.0}, sim.now) == set()


def test_attach_refuses_two_agents_on_one_host():
    """Silent shard replacement would corrupt the deterministic step
    order; it must raise instead."""
    sim = Simulator(dt=1.0, seed=0)
    plane = ShardedControlPlane(sim, 5.0)
    nm_a = SimpleNamespace(host_name="server00")
    nm_b = SimpleNamespace(host_name="server00")
    plane.attach(nm_a)
    plane.attach(nm_a)  # same object: idempotent
    with pytest.raises(ValueError, match="already has an attached shard"):
        plane.attach(nm_b)
    plane.detach(nm_a)
    plane.attach(nm_b)  # explicit detach first is the supported path

"""Integration test of the Fig. 8 architecture: the full pipeline.

Monitor → detector → identifier → CUBIC controller → libvirt actuation,
with decentralized per-host agents talking only to the cloud manager and
the hypervisor — exercised end to end on a live scenario.
"""

import numpy as np
import pytest

from repro.cloud.nova import CloudManager
from repro.core.config import PerfCloudConfig
from repro.core.perfcloud import PerfCloud
from repro.frameworks.hdfs import HdfsCluster
from repro.frameworks.mapreduce.jobtracker import JobTracker
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.vm import Priority
from repro.workloads.antagonists import FioRandomRead
from repro.workloads.datagen import teragen
from repro.workloads.puma import terasort


@pytest.fixture
def world():
    sim = Simulator(dt=1.0, seed=7)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cluster.add_host("h1")
    cloud = CloudManager(cluster)
    workers = [
        cloud.boot(f"w{i}", host="h0", priority=Priority.HIGH, app_id="hadoop")
        for i in range(6)
    ]
    hdfs = HdfsCluster([w.name for w in workers], sim.rng.stream("hdfs"))
    jt = JobTracker(sim, workers, hdfs)
    fio_vm = cloud.boot("fio", host="h0", priority=Priority.LOW)
    fio = FioRandomRead()
    fio_vm.attach_workload(fio)
    return sim, cluster, cloud, jt, fio_vm, fio


def test_full_pipeline_detects_identifies_throttles(world):
    sim, cluster, cloud, jt, fio_vm, fio = world
    pc = PerfCloud(sim, cloud)
    assert set(pc.node_managers) == {"h0", "h1"}

    job = jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(60)

    nm = pc.node_managers["h0"]
    # Detection: the iowait deviation signal crossed the threshold.
    io_sig = nm.detector.signal("hadoop", "io")
    assert max(io_sig.values()) > nm.config.h_io
    # Identification + control: fio received an I/O cap...
    assert ("fio", "io") in nm.cap_states
    # ...which was actuated through the libvirt facade into the cgroup.
    events = [e for e in nm.actions if e[1] == "fio" and e[2] == "io"]
    assert events
    # The other host's agent stayed quiet (decentralized scope).
    assert pc.node_managers["h1"].cap_states == {}

    sim.run(1000)
    assert job.completion_time is not None


def test_throttle_released_after_contention_ends(world):
    sim, cluster, cloud, jt, fio_vm, fio = world
    pc = PerfCloud(sim, cloud)
    job = jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(2000)
    assert job.completion_time is not None
    # Long after the job, the fio VM must be unthrottled again (the
    # CUBIC probe released the cap once contention stayed away).
    assert fio_vm.cgroup.throttle.bps_cap is None
    state = pc.node_managers["h0"].cap_states.get(("fio", "io"))
    assert state is None or state.released


def test_fio_crushed_during_job_recovers_after(world):
    sim, cluster, cloud, jt, fio_vm, fio = world
    PerfCloud(sim, cloud)
    job = jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(40)
    throttled_iops = fio.achieved_iops()
    sim.run(3000)
    recovered_iops = fio.achieved_iops()
    assert throttled_iops < recovered_iops * 0.5
    assert recovered_iops > 1000.0


def test_monitoring_only_config_never_actuates(world):
    sim, cluster, cloud, jt, fio_vm, fio = world
    pc = PerfCloud(sim, cloud, PerfCloudConfig(h_io=1e9, h_cpi=1e9))
    jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(200)
    nm = pc.node_managers["h0"]
    assert nm.cap_states == {}
    assert fio_vm.cgroup.throttle.bps_cap is None
    # Monitoring still happened.
    assert len(nm.detector.signal("hadoop", "io")) > 10


def test_perfcloud_stop_halts_agents(world):
    sim, _, cloud, jt, _, _ = world
    pc = PerfCloud(sim, cloud)
    sim.run(20)
    pc.stop()
    before = len(pc.throttle_events())
    jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(200)
    assert len(pc.throttle_events()) == before


def test_add_host_deploys_new_agent(world):
    sim, cluster, cloud, _, _, _ = world
    pc = PerfCloud(sim, cloud)
    cluster.add_host("h2")
    nm = pc.add_host("h2")
    assert pc.node_managers["h2"] is nm
    with pytest.raises(ValueError):
        pc.add_host("h2")


def test_perfcloud_runs_every_agent_in_process(world):
    sim, _, cloud, _, _, _ = world
    PerfCloud(sim, cloud, shard_workers=0).close()
    with pytest.raises(ValueError, match="shard_workers must be 0"):
        PerfCloud(sim, cloud, shard_workers=2)


def test_departed_antagonist_state_is_forgotten_fleet_wide():
    """Through the coordinator, a destroyed antagonist's TTL goes with
    it, and an idle same-name reboot is never judged an antagonist."""
    from repro.workloads.antagonists import SysbenchCpu, SysbenchOltp

    sim = Simulator(dt=1.0, seed=3)
    cluster = Cluster(sim)
    cloud = CloudManager(cluster)
    for i in range(2):
        host = cluster.add_host(f"server{i}").name
        for j, driver in enumerate((SysbenchOltp(duration_s=None),
                                    SysbenchOltp(duration_s=None),
                                    SysbenchCpu())):
            cloud.boot(f"app{i}-{j}", priority=Priority.HIGH, app_id="app",
                       host=host).attach_workload(driver)
        cloud.boot(f"ant{i}", host=host).attach_workload(FioRandomRead())
    pc = PerfCloud(sim, cloud)
    agent = pc.node_managers["server0"]
    sim.run_for(150.0)
    assert "ant0" in agent.identifier.remembered()
    cloud.delete("ant0")
    sim.run_for(10.0)
    assert "ant0" not in agent.identifier.remembered()
    cloud.boot("ant0", host="server0")  # idle namesake
    sim.run_for(60.0)
    assert "ant0" not in agent.identifier.remembered()
    assert not any(vm == "ant0" and t > 160.0
                   for t, vm, _, cap in agent.actions if cap is not None)
    # The other host's antagonist is untouched by server0's departure.
    assert "ant1" in pc.node_managers["server1"].identifier.remembered()
    pc.close()

"""Integration: the pooled control plane under worker loss.

The property suite (`tests/property/test_shm_plane_equivalence.py`)
establishes serial == pooled on healthy random worlds; these tests add
the chaos dimension — a pool worker SIGKILLed mid-run must be respawned
from the lockstep parent replica and the run must still finish
byte-identical to serial, with nothing left behind in ``/dev/shm``.
"""

import glob
import os
import signal

from repro.experiments.harness import TestbedConfig, build_testbed
from repro.metrics.shm import shm_dir


def _fingerprint(pc) -> tuple:
    out = []
    for host in sorted(pc.node_managers):
        nm = pc.node_managers[host]
        sig = nm.detector.signal("app", "io")
        cpi = nm.detector.signal("app", "cpi")
        out.append((
            host,
            tuple(nm.actions),
            tuple(sig.times().tolist()), tuple(sig.values().tolist()),
            tuple(cpi.times().tolist()), tuple(cpi.values().tolist()),
            tuple(sorted(nm.survival_summary().items())),
        ))
    return tuple(out)


def _repro_shm_segments() -> list:
    return glob.glob(os.path.join(shm_dir(), "repro-shm-*"))


def _build(seed: int = 11):
    return build_testbed(TestbedConfig(
        seed=seed, num_hosts=2, num_workers=4, framework="mapreduce",
        antagonists=(("fio", 0), ("stream", 1)),
    ))


def test_ticket_free_ticks_skip_quiet_hosts_and_change_nothing():
    """Hosts with no detector in deviation skip the pool round-trip.

    A deviating world (fio antagonist + terasort on host 0, host 1
    quiet) runs three ways — serial, pooled with ticket-free routing
    (the default), pooled with it disabled — and must produce one
    fingerprint; the default path must actually skip some host-ticks.
    """
    from repro import teragen, terasort
    from repro.experiments.harness import run_until

    def outcome(shard_workers, ticket_free):
        bed = _build(seed=5)
        pc = bed.deploy_perfcloud(shard_workers=shard_workers)
        pc.control_plane.ticket_free = ticket_free
        job = bed.jobtracker.submit(terasort(), teragen(320), num_reducers=4)
        run_until(bed.sim, lambda: job.completion_time is not None,
                  horizon=2000)
        bed.run(60.0)
        fp = _fingerprint(pc)
        skipped = pc.control_plane.timings["ticket_free"]
        pc.close()
        return fp, skipped

    serial, _ = outcome(0, True)
    pooled_free, skipped = outcome(2, True)
    pooled_always, shipped_all = outcome(2, False)

    assert pooled_free == serial
    assert pooled_always == serial
    # Both hosts are quiet before deviation onset and after release, so
    # the default routing must have skipped some round-trips...
    assert skipped > 0
    # ...which is a real difference in shipping, not a no-op flag.
    assert shipped_all == 0


def test_worker_sigkill_midrun_stays_byte_identical():
    before = set(_repro_shm_segments())

    serial_bed = _build()
    serial_pc = serial_bed.deploy_perfcloud()
    serial_bed.run(240.0)
    want = _fingerprint(serial_pc)
    serial_pc.close()

    bed = _build()
    pc = bed.deploy_perfcloud(shard_workers=2)
    # This world is quiet (no job → no deviation), so ticket-free ticks
    # would route everything parent-side and the pool would never see a
    # ticket; the drill is specifically about losing a worker mid-ship,
    # so force every ticket onto the pool.
    pc.control_plane.ticket_free = False
    bed.run(120.0)

    pool = pc.control_plane._pool
    assert pool is not None, "pooled run never started its pool"
    victim = pool._slots[0].proc
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)

    bed.run(120.0)
    got = _fingerprint(pc)

    assert got == want
    assert pool.worker_deaths >= 1
    assert pool.respawns >= 1
    assert not pool.failed
    # The corpse is noticed at the next tick boundary and respawned from
    # the lockstep parent state before any ticket is shipped, so the run
    # continues without serial fallbacks.
    assert pc.control_plane.timings["fallback_tickets"] == 0

    pc.close()
    assert set(_repro_shm_segments()) <= before



def _fleet(shard_workers):
    """Two hosts, each a three-VM victim app beside a fio antagonist."""
    from repro.cloud.nova import CloudManager
    from repro.core.perfcloud import PerfCloud
    from repro.sim.engine import Simulator
    from repro.virt.cluster import Cluster
    from repro.virt.vm import Priority
    from repro.workloads.antagonists import (
        FioRandomRead, SysbenchCpu, SysbenchOltp,
    )

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
    return sim, cloud, PerfCloud(sim, cloud, shard_workers=shard_workers)


def test_departed_antagonist_state_matches_serial_under_the_pool():
    """The parent forgets a departed antagonist's TTL; with the parent
    re-judging every absorbed verdict, a pooled run through a destroy
    and a same-name idle reboot stays byte-identical to serial."""

    def outcome(shard_workers):
        sim, cloud, pc = _fleet(shard_workers)
        agent = pc.node_managers["server0"]
        sim.run_for(150.0)
        assert "ant0" in agent.identifier.remembered()
        cloud.delete("ant0")
        sim.run_for(10.0)
        assert "ant0" not in agent.identifier.remembered()
        cloud.boot("ant0", host="server0")  # idle namesake
        sim.run_for(60.0)
        fp = _fingerprint(pc) + tuple(
            tuple(sorted(pc.node_managers[h].identifier._last_hit.items()))
            for h in sorted(pc.node_managers)
        )
        pc.close()
        return fp

    assert outcome(2) == outcome(0)

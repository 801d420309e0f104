"""Unit tests for the NUMA memory system, ad-hoc controller and
composite driver."""

import numpy as np
import pytest

from repro.core.adhoc import AdHocController
from repro.core.config import PerfCloudConfig
from repro.frameworks.executor import CompositeDriver, blend_profiles
from repro.hardware.memsys import MemRequest
from repro.hardware.numa import NumaMemorySystem, numa_isolate
from repro.hardware.resources import (
    NetFlowDemand,
    PerfProfile,
    ResourceDemand,
    ResourceGrant,
)
from repro.hardware.specs import MemSpec


# ----------------------------------------------------------------------- NUMA

def make_numa(sockets=2, **kw):
    return NumaMemorySystem(
        MemSpec(**kw), np.random.default_rng(0), sockets=sockets
    )


def test_numa_round_robin_default_pinning():
    ms = make_numa()
    assert ms.socket_of("a") == 0
    assert ms.socket_of("b") == 1
    assert ms.socket_of("c") == 0
    assert ms.socket_of("a") == 0  # stable


def test_numa_pin_and_unpin():
    ms = make_numa()
    ms.pin("vm", 1)
    assert ms.socket_of("vm") == 1
    ms.unpin("vm")
    assert ms.socket_of("vm") in (0, 1)
    with pytest.raises(ValueError):
        ms.pin("vm", 5)


def test_numa_invalid_sockets():
    with pytest.raises(ValueError):
        make_numa(sockets=0)


def test_numa_partitions_bandwidth():
    """A hog on socket 1 cannot stall a victim pinned to socket 0."""
    ms = make_numa(bandwidth_gbps=50.0)
    ms.pin("victim", 0)
    ms.pin("hog", 1)
    reqs = {
        "victim": MemRequest(llc_ws_mb=8.0, active_cores=2.0, demand_cores=2.0,
                             mem_bw_gbps=2.0, base_cpi=1.0, bw_sensitivity=1.0),
        "hog": MemRequest(llc_ws_mb=5000.0, active_cores=8.0, demand_cores=8.0,
                          mem_bw_gbps=90.0),
    }
    out = ms.evaluate(reqs, dt=1.0)
    assert out["victim"].bw_stall == 0.0
    assert out["hog"].bw_stall > 0.0  # its own socket saturated (25 GB/s)


def test_numa_interleaved_hog_does_stall():
    ms = make_numa(bandwidth_gbps=50.0)
    ms.pin("victim", 0)
    ms.pin("hog", 0)  # same socket: 25 GB/s shared
    reqs = {
        "victim": MemRequest(llc_ws_mb=8.0, active_cores=2.0, demand_cores=2.0,
                             mem_bw_gbps=2.0, base_cpi=1.0, bw_sensitivity=1.0),
        "hog": MemRequest(llc_ws_mb=5000.0, active_cores=8.0, demand_cores=8.0,
                          mem_bw_gbps=90.0),
    }
    out = ms.evaluate(reqs, dt=1.0)
    assert out["victim"].bw_stall > 0.0


def test_numa_isolate_helper():
    ms = make_numa(sockets=2)
    numa_isolate(ms, ["w0", "w1"], ["bad0", "bad1", "bad2"])
    assert ms.socket_of("w0") == 0 and ms.socket_of("w1") == 0
    for vm in ("bad0", "bad1", "bad2"):
        assert ms.socket_of(vm) == 1


def test_numa_single_socket_isolate_is_safe():
    ms = make_numa(sockets=1)
    numa_isolate(ms, ["w0"], ["bad0"])
    assert ms.socket_of("w0") == 0
    assert ms.socket_of("bad0") == 0


# --------------------------------------------------------------------- ad-hoc

def test_adhoc_clamps_and_releases():
    ctl = AdHocController(PerfCloudConfig(), clamp_frac=0.2)
    state = ctl.start(100.0)
    ctl.update(state, contention=True)
    assert state.cap == 0.2
    assert not state.released
    ctl.update(state, contention=False)
    assert state.released  # instant full release: the oscillation source
    ctl.update(state, contention=True)
    assert state.cap == 0.2


def test_adhoc_validation():
    with pytest.raises(ValueError):
        AdHocController(PerfCloudConfig(), clamp_frac=0.0)


def test_adhoc_oscillates_where_cubic_damps():
    cfg = PerfCloudConfig()
    from repro.core.cubic import CubicController

    def flips(ctl):
        state = ctl.start(10.0)
        transitions = 0
        prev_released = state.released
        # Alternating contention pattern (the feedback loop of §III-C).
        for i in range(20):
            ctl.update(state, contention=(i % 2 == 0))
            if state.released != prev_released:
                transitions += 1
            prev_released = state.released
        return transitions

    assert flips(AdHocController(cfg)) > flips(CubicController(cfg))


# ------------------------------------------------------------------ composite

class _Child:
    def __init__(self, cpu, iops, profile=None):
        self.cpu = cpu
        self.iops = iops
        self.profile = profile or PerfProfile()
        self.grants = []
        self.finished = False

    def demand(self):
        return ResourceDemand(
            cpu_cores=self.cpu,
            read_iops=self.iops,
            read_bytes_ps=self.iops * 1e4,
            mem_bw_gbps=0.5,
            llc_ws_mb=4.0,
            flows=(NetFlowDemand(peer_vm="p", bytes_per_s=1e6),),
        )

    def consume(self, grant):
        self.grants.append(grant)


def test_composite_sums_demands():
    comp = CompositeDriver([_Child(1.0, 100.0), _Child(2.0, 300.0)])
    d = comp.demand()
    assert d.cpu_cores == 3.0
    assert d.read_iops == 400.0
    assert d.llc_ws_mb == 8.0
    assert len(d.flows) == 2


def test_composite_splits_grants_proportionally():
    a, b = _Child(1.0, 100.0), _Child(3.0, 300.0)
    comp = CompositeDriver([a, b])
    comp.demand()
    comp.consume(ResourceGrant(
        dt=1.0, cpu_coresec=4.0, effective_coresec=2.0, cpi=2.0,
        read_ops=200.0, read_bytes=2e6, net_bytes={"p": 1e6},
    ))
    assert a.grants[0].cpu_coresec == pytest.approx(1.0)
    assert b.grants[0].cpu_coresec == pytest.approx(3.0)
    assert a.grants[0].read_ops == pytest.approx(50.0)
    assert b.grants[0].read_ops == pytest.approx(150.0)
    # Environment passes through unscaled.
    assert a.grants[0].cpi == 2.0
    # Net split evenly (equal per-peer flow demand).
    assert a.grants[0].net_bytes["p"] == pytest.approx(5e5)


def test_composite_empty_rejected():
    with pytest.raises(ValueError):
        CompositeDriver([])


def test_composite_finished_requires_all():
    a, b = _Child(1.0, 0.0), _Child(1.0, 0.0)
    comp = CompositeDriver([a, b])
    assert not comp.finished
    a.finished = True
    assert not comp.finished
    b.finished = True
    assert comp.finished


def test_composite_profile_blend():
    a = _Child(1.0, 0.0, PerfProfile(base_cpi=1.0))
    b = _Child(3.0, 0.0, PerfProfile(base_cpi=2.0))
    comp = CompositeDriver([a, b])
    comp.demand()
    assert comp.profile.base_cpi == pytest.approx(1.75)


def test_composite_profile_read_polls_no_child():
    class _Counting(_Child):
        polls = 0

        def demand(self):
            _Counting.polls += 1
            return super().demand()

    fast = PerfProfile(base_cpi=0.8)
    slow = PerfProfile(base_cpi=1.6)
    comp = CompositeDriver([_Counting(1.0, 0.0, fast),
                            _Counting(3.0, 0.0, slow)])
    # Nothing polled yet: the children weigh equally, and reading the
    # property leaves them unpolled.
    assert comp.profile == blend_profiles([fast, slow], [1.0, 1.0])
    assert comp.profile.base_cpi == pytest.approx(1.2)
    assert _Counting.polls == 0
    # After a poll the CPU demands weigh the blend.
    comp.demand()
    assert _Counting.polls == 2
    assert comp.profile == blend_profiles([fast, slow], [1.0, 3.0])
    assert _Counting.polls == 2

"""Unit tests for the data plane's per-kernel plan cache.

Each kernel's draw-free plan is keyed on the input rows that kernel
reads (``GuestTable.cached``): churn in the disk rows alone rebuilds the
disk plan every tick and leaves the CPU and memory-system plans in
place, while a change to a CPU row or to ``dt`` rebuilds the kernels
that read it.
"""

import dataclasses

from repro.hardware.host import PhysicalHost, step_hosts
from repro.hardware.resources import PerfProfile, ResourceDemand
from repro.hardware.specs import R630
from repro.hardware.table import GuestTable
from repro.sim.rng import RngRegistry
from repro.virt.vm import VM


class _Steady:
    """Constant demand, except a read rate that changes every poll
    when ``churn`` is set."""

    profile = PerfProfile()
    finished = False

    def __init__(self, demand, churn=False) -> None:
        self.base = demand
        self.churn = churn
        self.polls = 0

    def demand(self):
        self.polls += 1
        if not self.churn:
            return self.base
        return dataclasses.replace(
            self.base, read_iops=1000.0 + 37.0 * self.polls)

    def consume(self, grant) -> None:
        pass


def _host():
    host = PhysicalHost("p0", R630, RngRegistry(5))
    work = ResourceDemand(cpu_cores=3.0, read_iops=800.0, read_bytes_ps=5e7,
                          write_iops=200.0, write_bytes_ps=1e7,
                          mem_bw_gbps=2.0, llc_ws_mb=12.0)
    vms = []
    for i in range(5):
        vm = VM(f"vm{i}", vcpus=4)
        vm.attach_workload(_Steady(work, churn=(i == 2)))
        host.attach(vm)
        vms.append(vm)
    return host, vms


def _builds(table):
    s = table.stats
    return (s.busy_ticks, s.cpu_plan_builds, s.memsys_plan_builds,
            s.disk_plan_builds)


def test_disk_churn_reuses_cpu_and_memsys_plans():
    host, vms = _host()
    table = GuestTable([host])
    for _ in range(6):
        step_hosts(table, 1.0)
    # The read rate changed every tick: only the disk plan was rebuilt.
    assert _builds(table) == (6, 1, 1, 6)

    # A cpu_cap flip changes a CPU row: CPU and memsys rebuild (memsys
    # reads the grant), disk rebuilds only for its own churn.
    vms[0].cgroup.cpu.quota_cores = 0.5
    step_hosts(table, 1.0)
    assert _builds(table) == (7, 2, 2, 7)
    step_hosts(table, 1.0)
    assert _builds(table) == (8, 2, 2, 8)

    # A new dt invalidates every plan.
    step_hosts(table, 0.5)
    assert _builds(table) == (9, 3, 3, 9)


def test_steady_inputs_reuse_every_plan():
    host, vms = _host()
    vms[2].driver.churn = False
    table = GuestTable([host])
    for _ in range(4):
        step_hosts(table, 1.0)
    assert _builds(table) == (4, 1, 1, 1)
    # A blkio cap is a disk row: only the disk plan rebuilds.
    vms[1].cgroup.throttle.iops_cap = 300.0
    step_hosts(table, 1.0)
    assert _builds(table) == (5, 1, 1, 2)

"""Virtual machine: vCPUs + cgroup + an attached workload driver.

A VM is the unit of placement, priority and throttling.  The paper's
model (§III) assumes the cloud administrator assigns each instance a
priority — *high* for the data-intensive scale-out application VMs whose
performance PerfCloud isolates, *low* for everything else (the potential
antagonists).

The VM implements the hardware layer's ``Guest`` protocol: it publishes
its driver's resource demand (clamped to its vCPU allotment), exposes its
cgroup caps, and folds delivered grants into both its cgroup counters and
its driver's progress.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.hardware.resources import (
    IDLE_PROFILE,
    PerfProfile,
    ResourceDemand,
    ResourceGrant,
    ZERO_DEMAND,
)
from repro.virt.cgroups import Cgroup

__all__ = ["Priority", "VM"]

# The idle singleton, so driverless VMs hit the same hardware-layer fast
# paths as VMs whose driver finished (identical field values either way).
_DEFAULT_PROFILE = IDLE_PROFILE


class Priority(enum.Enum):
    """Cloud-administrator-assigned instance priority (paper §I, §III)."""

    HIGH = "high"
    LOW = "low"


class VM:
    """One guest virtual machine."""

    def __init__(
        self,
        name: str,
        vcpus: int = 2,
        mem_gb: float = 8.0,
        priority: Priority = Priority.LOW,
        app_id: Optional[str] = None,
    ) -> None:
        if vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {vcpus!r}")
        if mem_gb <= 0:
            raise ValueError(f"mem_gb must be positive, got {mem_gb!r}")
        self.name = name
        self.vcpus = int(vcpus)
        self.mem_gb = float(mem_gb)
        self.priority = priority
        #: Identifier grouping the VMs of one scale-out application
        #: (e.g. all workers of one Hadoop cluster).  None for standalone.
        self.app_id = app_id
        self.cgroup = Cgroup(name=name)
        self.driver = None
        #: Host placement; maintained by the Cluster.
        self.host_name: Optional[str] = None
        self._freq_hz: float = 2.3e9
        #: Simulated boot time (set by the cluster on placement).
        self.boot_time: float = 0.0

    # ------------------------------------------------------------- workloads
    def attach_workload(self, driver) -> None:
        """Bind a workload driver (anything with demand/consume/finished)."""
        for attr in ("demand", "consume"):
            if not hasattr(driver, attr):
                raise TypeError(
                    f"driver {driver!r} lacks required method {attr!r}"
                )
        self.driver = driver

    def clear_workload(self) -> None:
        """Detach the current driver (the VM idles afterwards)."""
        self.driver = None

    @property
    def is_high_priority(self) -> bool:
        """Whether this VM belongs to a protected application."""
        return self.priority is Priority.HIGH

    # ------------------------------------------------- Guest protocol (hardware)
    def poll_demand(self) -> ResourceDemand:
        """Resource appetite for the next step.

        CPU demand is *not* clamped here: the vCPU count acts as an
        implicit hard cap (see :meth:`cpu_cap_cores`), while the raw
        demand still reaches the memory-system model — 8 guest threads
        timesharing 2 vCPUs drive only a quarter of their nominal DRAM
        traffic, which matters for how much pressure a small STREAM VM
        can exert (§III-B).
        """
        if self.driver is None or getattr(self.driver, "finished", False):
            return ZERO_DEMAND
        return self.driver.demand()

    def cpu_cap_cores(self) -> Optional[float]:
        """Effective CPU cap: min(cgroup quota, vCPU allotment)."""
        quota = self.cgroup.cpu.quota_cores
        if quota is None:
            return float(self.vcpus)
        return min(quota, float(self.vcpus))

    def io_caps(self) -> Tuple[Optional[float], Optional[float]]:
        """Current blkio throttle: (iops_cap, bytes_per_s_cap)."""
        thr = self.cgroup.throttle
        return thr.iops_cap, thr.bps_cap

    def perf_profile(self) -> PerfProfile:
        """Microarchitectural personality of the attached workload."""
        if self.driver is None:
            return _DEFAULT_PROFILE
        return getattr(self.driver, "profile", _DEFAULT_PROFILE)

    def publish_row(self, table, i: int) -> int:
        """Write this VM's demand/cap/profile fields into row ``i``.

        Columnar counterpart of ``poll_demand``/``cpu_cap_cores``/
        ``io_caps``/``perf_profile``: one fused pass that touches the
        driver exactly once (``demand()`` may be stateful) and constructs
        nothing.  Returns the row's delivery code — 0: no live driver, or
        one that is parked (:attr:`WorkloadDriver.idle
        <repro.workloads.base.WorkloadDriver.idle>`: an idle executor)
        or finished; an all-zero grant would be an exact no-op, so the
        row is not delivered.  A parked driver is neither polled nor
        delivered to and its row takes ``IDLE_PROFILE``, value-equal to
        the profile an idle executor or composite reports.  1: live
        driver polled ``ZERO_DEMAND`` (must still consume the zero grant
        — episodic drivers advance through off-phases there).  2: active
        demand published.  Drivers without an ``idle`` attribute are
        never parked.
        """
        driver = self.driver
        if driver is None or getattr(driver, "idle", False):
            prof = _DEFAULT_PROFILE
            if prof is not table.profiles[i]:
                table.set_profile(i, prof)
            if table.row_active[i]:
                table.zero_row(i)
            return 0
        if getattr(driver, "finished", False):
            prof = getattr(driver, "profile", _DEFAULT_PROFILE)
            if prof is not table.profiles[i]:
                table.set_profile(i, prof)
            if table.row_active[i]:
                table.zero_row(i)
            return 0
        d = driver.demand()
        # Profile is read *after* demand(): some drivers (e.g. the
        # framework CompositeDriver) blend their profile with weights
        # cached by the latest demand() call, and the scalar path polls
        # all demands before snapshotting profiles.
        prof = getattr(driver, "profile", _DEFAULT_PROFILE)
        if prof is not table.profiles[i]:
            table.set_profile(i, prof)
        if d is ZERO_DEMAND:
            if table.row_active[i]:
                table.zero_row(i)
            return 1
        table.row_active[i] = True
        quota = self.cgroup.cpu.quota_cores
        vcpus = float(self.vcpus)
        table.cpu_cap[i] = vcpus if quota is None else min(quota, vcpus)
        thr = self.cgroup.throttle
        iops_cap = thr.iops_cap
        bps_cap = thr.bps_cap
        table.iops_cap[i] = float("inf") if iops_cap is None else iops_cap
        table.bps_cap[i] = float("inf") if bps_cap is None else bps_cap
        table.cpu_demand[i] = d.cpu_cores
        table.read_iops[i] = d.read_iops
        table.write_iops[i] = d.write_iops
        table.read_bps[i] = d.read_bytes_ps
        table.write_bps[i] = d.write_bytes_ps
        table.mem_bw[i] = d.mem_bw_gbps
        table.llc_ws[i] = d.llc_ws_mb
        table.flows[i] = d.flows
        return 2

    # ------------------------------------------------------------- delivery
    def set_host(self, host_name: str, freq_hz: float, boot_time: float) -> None:
        """Record placement (called by the cluster on boot/migration)."""
        self.host_name = host_name
        self._freq_hz = freq_hz
        self.boot_time = boot_time

    def deliver(self, grant: ResourceGrant) -> None:
        """Account one step's grant and advance the attached workload."""
        self.cgroup.account(grant, self._freq_hz)
        if self.driver is not None and not getattr(self.driver, "finished", False):
            self.driver.consume(grant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VM({self.name!r}, vcpus={self.vcpus}, priority={self.priority.value}, "
            f"host={self.host_name!r}, app={self.app_id!r})"
        )

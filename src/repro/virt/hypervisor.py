"""Per-host hypervisor control plane.

A thin KVM-shaped management layer over one physical host's guests: list
domains, apply CPU hard caps and blkio throttles, read cgroup statistics.
The libvirt facade (:mod:`repro.virt.libvirt_api`) delegates here, so all
actuation funnels through one audited path.

Cap application latency: the paper measures <30 ms to apply a resource cap
(§IV-D1) — negligible at the 5-second control cadence, so caps here take
effect at the next fluid step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.host import PhysicalHost
from repro.virt.vm import VM

__all__ = ["Hypervisor"]


class Hypervisor:
    """Management interface to the guests of one physical host."""

    def __init__(self, host: PhysicalHost) -> None:
        self.host = host
        #: Audit log of actuation calls: (time-free) tuples for tests.
        self.actuation_log: List[tuple] = []

    # ----------------------------------------------------------------- query
    def list_guests(self) -> List[VM]:
        """All guests of this host, name-ordered."""
        guests = self.host.guests
        return [guests[n] for n in sorted(guests)]

    def lookup(self, name: str) -> VM:
        """The guest called ``name`` (KeyError if absent)."""
        guests = self.host.guests
        if name not in guests:
            raise KeyError(f"no guest {name!r} on host {self.host.name!r}")
        guest = guests[name]
        if not isinstance(guest, VM):
            raise TypeError(f"guest {name!r} is not a VM")
        return guest

    # -------------------------------------------------------------- actuate
    def set_cpu_cap(self, name: str, cores: Optional[float]) -> None:
        """Hard-cap a guest's CPU (None removes the cap)."""
        if cores is not None and cores < 0:
            raise ValueError(f"CPU cap must be non-negative, got {cores!r}")
        vm = self.lookup(name)
        vm.cgroup.cpu.quota_cores = cores
        self.actuation_log.append(("cpu_cap", name, cores))

    def set_blkio_throttle(
        self,
        name: str,
        iops_cap: Optional[float] = None,
        bps_cap: Optional[float] = None,
    ) -> None:
        """Set blkio throttle caps (None components remove that cap)."""
        vm = self.lookup(name)
        vm.cgroup.throttle.iops_cap = iops_cap
        vm.cgroup.throttle.bps_cap = bps_cap
        vm.cgroup.throttle.validate()
        self.actuation_log.append(("blkio", name, iops_cap, bps_cap))

    # ----------------------------------------------------------------- stats
    def cgroup_stats(self, name: str) -> Dict[str, float]:
        """Cumulative cgroup counters of one guest."""
        return self.lookup(name).cgroup.snapshot()

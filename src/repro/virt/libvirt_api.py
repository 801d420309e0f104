"""libvirt-shaped facade over the hypervisor.

The paper's node manager "uses the Libvirt API to apply the CPU caps
through ``vcpu_quota``, and the I/O caps through block I/O subsystem's
throttling policy" and "to collect the Block I/O metrics from the
hypervisor" (§III-D).  This module reproduces the subset of libvirt's
Python binding surface PerfCloud needs, with libvirt's naming and unit
conventions:

* ``Domain.setSchedulerParameters({'vcpu_quota': µs, 'vcpu_period': µs})``
* ``Domain.setBlockIoTune(device, {'total_iops_sec': n, 'total_bytes_sec': n})``
* ``Domain.blockStats()`` / ``Domain.blkioStats()`` — cumulative counters
* ``Domain.perfStats()`` — per-cgroup hardware-event counts
* ``Connection.getAllDomainStats()`` — every guest's counters in one call
  (``virConnectGetAllDomainStats``), as ``[(Domain, {counter: value})]``

Writing the node manager against this facade keeps it *non-invasive*: it
would port to real libvirt by swapping this import.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VM

__all__ = [
    "Connection",
    "Domain",
    "LibvirtError",
    "VCPU_PERIOD_US",
    "per_domain_stats",
]

#: libvirt's default CFS enforcement period, microseconds.
VCPU_PERIOD_US = 100_000


class LibvirtError(RuntimeError):
    """Raised for libvirt-style failures (unknown domain, bad params)."""


class Domain:
    """Handle to one guest, mirroring ``libvirt.virDomain``."""

    def __init__(self, hypervisor: Hypervisor, vm: VM) -> None:
        self._hv = hypervisor
        self._vm = vm

    def name(self) -> str:
        """Domain name (the VM name)."""
        return self._vm.name

    def vcpus(self) -> int:
        """Number of virtual CPUs."""
        return self._vm.vcpus

    # ----------------------------------------------------------- scheduling
    def setSchedulerParameters(self, params: Dict[str, int]) -> None:
        """Apply CPU hard caps via ``vcpu_quota``/``vcpu_period``.

        Per libvirt semantics, quota is the runtime (µs) each vCPU may use
        per period; the effective core cap is
        ``vcpus * quota / period``.  A quota of -1 removes the cap.
        """
        if "vcpu_quota" not in params:
            raise LibvirtError("missing 'vcpu_quota' parameter")
        quota = int(params["vcpu_quota"])
        period = int(params.get("vcpu_period", VCPU_PERIOD_US))
        if period <= 0:
            raise LibvirtError(f"invalid vcpu_period {period!r}")
        if quota == -1:
            self._hv.set_cpu_cap(self._vm.name, None)
            return
        if quota < 1000:  # libvirt's documented lower bound
            raise LibvirtError(f"vcpu_quota {quota!r} below libvirt minimum 1000")
        cores = self._vm.vcpus * quota / period
        self._hv.set_cpu_cap(self._vm.name, cores)

    def schedulerParameters(self) -> Dict[str, int]:
        """Current vcpu_quota/vcpu_period (µs), -1 quota = uncapped."""
        cap = self._vm.cgroup.cpu.quota_cores
        if cap is None:
            quota = -1
        else:
            quota = int(round(cap / self._vm.vcpus * VCPU_PERIOD_US))
        return {"vcpu_quota": quota, "vcpu_period": VCPU_PERIOD_US}

    # ------------------------------------------------------------------ I/O
    def setBlockIoTune(self, device: str, params: Dict[str, float]) -> None:
        """Apply blkio throttling (device arg kept for API fidelity)."""
        iops = params.get("total_iops_sec")
        bps = params.get("total_bytes_sec")
        for v, k in ((iops, "total_iops_sec"), (bps, "total_bytes_sec")):
            if v is not None and v < 0:
                raise LibvirtError(f"negative {k}: {v!r}")
        # 0 means "unlimited" in libvirt's convention.
        iops_cap = None if not iops else float(iops)
        bps_cap = None if not bps else float(bps)
        self._hv.set_blkio_throttle(self._vm.name, iops_cap, bps_cap)

    def blockIoTune(self, device: str = "vda") -> Dict[str, float]:
        """Current blkio throttle settings (0 = unlimited)."""
        thr = self._vm.cgroup.throttle
        return {
            "total_iops_sec": thr.iops_cap or 0.0,
            "total_bytes_sec": thr.bps_cap or 0.0,
        }

    # ----------------------------------------------------------------- stats
    def blkioStats(self) -> Dict[str, float]:
        """Cumulative blkio counters (the §III-A1 inputs)."""
        b = self._vm.cgroup.blkio
        return {
            "io_serviced": b.io_serviced,
            "io_wait_time_ms": b.io_wait_time_ms,
            "io_service_bytes": b.io_service_bytes,
        }

    def perfStats(self) -> Dict[str, float]:
        """Cumulative per-cgroup hardware-event counts (the §III-A2 inputs)."""
        p = self._vm.cgroup.perf
        return {
            "cycles": p.cycles,
            "instructions": p.instructions,
            "llc_references": p.llc_references,
            "llc_misses": p.llc_misses,
        }

    def cpuStats(self) -> Dict[str, float]:
        """Cumulative CPU time consumed by the domain."""
        return {"cpu_time_core_seconds": self._vm.cgroup.cpu.usage_core_seconds}


class Connection:
    """Handle to one host's hypervisor, mirroring ``libvirt.virConnect``."""

    def __init__(self, hypervisor: Hypervisor) -> None:
        self._hv = hypervisor

    def hostname(self) -> str:
        """Name of the connected host."""
        return self._hv.host.name

    def listAllDomains(self) -> List[Domain]:
        """Handles to every guest on the host."""
        return [Domain(self._hv, vm) for vm in self._hv.list_guests()]

    def lookupByName(self, name: str) -> Domain:
        """Handle to one guest; LibvirtError if unknown."""
        try:
            return Domain(self._hv, self._hv.lookup(name))
        except KeyError as exc:
            raise LibvirtError(str(exc)) from exc

    def getAllDomainStats(self) -> List[Tuple[Domain, Dict[str, float]]]:
        """Every guest's cumulative counters in one call.

        One ``(domain, record)`` pair per guest, in ``listAllDomains()``
        order; the record holds the counters ``blkioStats()``,
        ``perfStats()`` and ``cpuStats()`` return, in that order, read
        straight from the guest's cgroup.
        """
        hv = self._hv
        out = []
        for vm in hv.list_guests():
            cg = vm.cgroup
            b = cg.blkio
            p = cg.perf
            out.append((Domain(hv, vm), {
                "io_serviced": b.io_serviced,
                "io_wait_time_ms": b.io_wait_time_ms,
                "io_service_bytes": b.io_service_bytes,
                "cycles": p.cycles,
                "instructions": p.instructions,
                "llc_references": p.llc_references,
                "llc_misses": p.llc_misses,
                "cpu_time_core_seconds": cg.cpu.usage_core_seconds,
            }))
        return out


def per_domain_stats(domains: Iterable) -> List[Tuple[object, Dict[str, float]]]:
    """``getAllDomainStats`` records assembled from per-domain reads.

    Each domain is read ``blkioStats`` → ``perfStats`` → ``cpuStats``,
    stopping at the first ``LibvirtError``; a domain whose read failed
    comes back with an empty record.  Wrappers that fault or guard single
    calls answer the batched read through this loop, so every call keeps
    its own semantics and its place in the call order.
    """
    out = []
    for dom in domains:
        try:
            record = {**dom.blkioStats(), **dom.perfStats(), **dom.cpuStats()}
        except LibvirtError:
            record = {}
        out.append((dom, record))
    return out

"""Physical host: composition of the shared-resource models.

A :class:`PhysicalHost` owns one CPU pool, one block device, one memory
system and a set of guests.  Guests are duck-typed via :class:`Guest` so
the hardware layer stays ignorant of virtualization details — the virt
layer's :class:`~repro.virt.vm.VM` satisfies the protocol.

Each fluid step proceeds host-locally in a fixed order (CPU → disk →
memory system), producing per-guest :class:`ResourceGrant` records; the
cluster assembler then resolves cross-host network flows and delivers the
completed grants to guests.  :func:`step_hosts` does this for every host
of a :class:`~repro.hardware.table.GuestTable` at once, one call per
kernel; :meth:`PhysicalHost.step_local` is the per-guest scalar path,
kept as the oracle and used by multi-socket (NUMA) hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.hardware.disk import IDLE_REQUEST, BlockDevice, DiskRequest
from repro.hardware.memsys import IDLE_MEM_REQUEST, MemorySystem, MemRequest
from repro.hardware.cpu import allocate_cpu, allocate_cpu_table
from repro.hardware.table import GuestTable, seq_sum
from repro.hardware.resources import (
    IDLE_PROFILE,
    ZERO_DEMAND,
    NetFlowDemand,
    PerfProfile,
    ResourceDemand,
    ResourceGrant,
)
from repro.hardware.specs import HostSpec

__all__ = ["Guest", "PhysicalHost", "HostStepResult", "step_hosts"]


class Guest(Protocol):
    """What the hardware layer needs to know about a hosted VM."""

    name: str
    vcpus: int

    def poll_demand(self) -> ResourceDemand:  # pragma: no cover - protocol
        """Resource appetite for the upcoming step."""
        ...

    def cpu_cap_cores(self) -> Optional[float]:  # pragma: no cover
        """Hard CPU cap in cores, or None if uncapped."""
        ...

    def io_caps(self) -> Tuple[Optional[float], Optional[float]]:  # pragma: no cover
        """(iops_cap, bytes_per_s_cap), None components meaning uncapped."""
        ...

    def perf_profile(self) -> PerfProfile:  # pragma: no cover
        """Microarchitectural personality of the currently-running work."""
        ...


@dataclass
class HostStepResult:
    """Host-local outcome of one step, before network resolution.

    ``flow_demands`` pairs each demanding guest's name with its raw
    :class:`NetFlowDemand`; the cluster assembler resolves peer hosts and
    runs the fabric allocation.
    """

    grants: Dict[str, ResourceGrant]
    flow_demands: List[Tuple[str, NetFlowDemand]]
    demands: Dict[str, ResourceDemand]


class PhysicalHost:
    """One physical server with its shared devices and guests."""

    def __init__(self, name: str, spec: HostSpec, rng_registry) -> None:
        self.name = name
        self.spec = spec
        self.disk = BlockDevice(spec.disk, rng_registry.stream(f"host.{name}.disk"))
        if spec.numa_sockets > 1:
            from repro.hardware.numa import NumaMemorySystem

            self.memsys = NumaMemorySystem(
                spec.mem,
                rng_registry.stream(f"host.{name}.mem"),
                sockets=spec.numa_sockets,
            )
        else:
            self.memsys = MemorySystem(
                spec.mem, rng_registry.stream(f"host.{name}.mem")
            )
        self._guests: Dict[str, Guest] = {}
        #: The :class:`GuestTable` holding this host's rows (None until a
        #: table takes the host); attach/detach mark it for rebuild.
        self.table: Optional[GuestTable] = None
        #: CPU utilization (granted cores / capacity) of the latest step.
        self.cpu_utilization = 0.0
        # The all-idle shortcut of step_local bypasses memsys.evaluate,
        # which is only legal for the plain single-socket model: the NUMA
        # variant pins VMs to sockets on first sight inside evaluate.
        self._idle_ok = spec.numa_sockets == 1

    # ---------------------------------------------------------------- guests
    @property
    def guests(self) -> Dict[str, Guest]:
        """Snapshot of hosted guests by name."""
        return dict(self._guests)

    def attach(self, guest: Guest) -> None:
        """Place a guest on this host."""
        if guest.name in self._guests:
            raise ValueError(f"guest {guest.name!r} already on host {self.name!r}")
        self._guests[guest.name] = guest
        if self.table is not None:
            self.table.dirty = True

    def detach(self, guest_name: str) -> Guest:
        """Remove and return a guest (KeyError if absent)."""
        try:
            guest = self._guests.pop(guest_name)
        except KeyError:
            raise KeyError(
                f"guest {guest_name!r} not on host {self.name!r}"
            ) from None
        if self.table is not None:
            self.table.dirty = True
        return guest

    def guest_names(self) -> List[str]:
        """Deterministically ordered guest names."""
        return sorted(self._guests)

    # ------------------------------------------------------------------ step
    def step_local(self, dt: float) -> HostStepResult:
        """Resolve host-local resources for one step, one guest at a time.

        The scalar path: production steps only NUMA hosts through it
        (see :func:`step_hosts`); for single-socket hosts it is the
        oracle the columnar kernels are tested against.  Returns grants
        lacking network deliveries (``net_bytes`` empty); the cluster
        fills those in after fabric allocation.
        """
        names = self.guest_names()
        demands = {n: self._guests[n].poll_demand() for n in names}
        if self._idle_ok and all(d is ZERO_DEMAND for d in demands.values()):
            return self._step_idle(names, demands, dt)

        # ---- CPU ---------------------------------------------------------
        cpu_grants = allocate_cpu(
            demands={n: demands[n].cpu_cores for n in names},
            weights={n: float(self._guests[n].vcpus) for n in names},
            caps={n: self._guests[n].cpu_cap_cores() for n in names},
            capacity=float(self.spec.cores),
        )
        self.cpu_utilization = (
            seq_sum(cpu_grants.values()) / self.spec.cores
            if self.spec.cores
            else 0.0
        )

        # ---- Disk ----------------------------------------------------------
        disk_reqs = {}
        for n in names:
            d = demands[n]
            iops_cap, bps_cap = self._guests[n].io_caps()
            if d is ZERO_DEMAND and iops_cap is None and bps_cap is None:
                disk_reqs[n] = IDLE_REQUEST
                continue
            disk_reqs[n] = DiskRequest(
                read_iops=d.read_iops,
                write_iops=d.write_iops,
                read_bytes_ps=d.read_bytes_ps,
                write_bytes_ps=d.write_bytes_ps,
                iops_cap=iops_cap,
                bps_cap=bps_cap,
            )
        disk_grants = self.disk.allocate(disk_reqs, dt)

        # ---- Memory system -------------------------------------------------
        # One profile snapshot per guest, reused for grant assembly below
        # (no guest state changes between the two uses).
        profiles = {n: self._guests[n].perf_profile() for n in names}
        mem_reqs = {}
        for n in names:
            d = demands[n]
            prof = profiles[n]
            if (
                d is ZERO_DEMAND
                and prof is IDLE_PROFILE
                and cpu_grants.get(n, 0.0) == 0.0
            ):
                mem_reqs[n] = IDLE_MEM_REQUEST
                continue
            mem_reqs[n] = MemRequest(
                llc_ws_mb=d.llc_ws_mb,
                mem_bw_gbps=d.mem_bw_gbps,
                active_cores=cpu_grants.get(n, 0.0),
                demand_cores=d.cpu_cores,
                base_cpi=prof.base_cpi,
                llc_sensitivity=prof.llc_sensitivity,
                bw_sensitivity=prof.bw_sensitivity,
                mpki_min=prof.mpki_min,
                mpki_max=prof.mpki_max,
            )
        mem_out = self.memsys.evaluate(mem_reqs, dt)

        # ---- Assemble grants ------------------------------------------------
        grants: Dict[str, ResourceGrant] = {}
        flow_demands: List[Tuple[str, NetFlowDemand]] = []
        for n in names:
            prof = profiles[n]
            mo = mem_out[n]
            dg = disk_grants[n]
            coresec = cpu_grants.get(n, 0.0) * dt
            grants[n] = ResourceGrant(
                dt=dt,
                cpu_coresec=coresec,
                effective_coresec=(
                    coresec * prof.base_cpi / mo.cpi_effective
                    * self.spec.speed_factor
                ),
                cpi=mo.cpi,
                mpki=mo.mpki,
                read_ops=dg.read_ops,
                write_ops=dg.write_ops,
                read_bytes=dg.read_bytes,
                write_bytes=dg.write_bytes,
                io_wait_ms_per_op=dg.wait_ms_per_op,
                mem_bytes=mo.mem_bytes,
            )
            for fl in demands[n].flows:
                flow_demands.append((n, fl))
        return HostStepResult(grants=grants, flow_demands=flow_demands, demands=demands)

    def _step_idle(self, names: List[str], demands, dt: float) -> HostStepResult:
        """Step a host whose every guest polled the ``ZERO_DEMAND`` singleton.

        Equivalent to the general path on all-zero demand: each allocator
        grants zero without drawing from its rng stream, so the only side
        effects to replicate are the utilization gauges and the disk's
        per-VM bias evictions (same order as :meth:`BlockDevice.allocate`:
        every share-bias forget, then every wait-bias forget).  An idle VM
        keeps its profile's ``base_cpi`` as observed CPI, exactly as the
        memory system reports for inactive guests.
        """
        self.cpu_utilization = 0.0
        disk = self.disk
        disk.utilization = 0.0
        for n in names:
            disk._share_bias.forget(n)
        for n in names:
            disk._bias.forget(n)
        self.memsys.bw_utilization = 0.0
        grants: Dict[str, ResourceGrant] = {}
        for n in names:
            grants[n] = ResourceGrant(
                dt=dt,
                cpu_coresec=0.0,
                effective_coresec=0.0,
                cpi=self._guests[n].perf_profile().base_cpi,
                mpki=0.0,
                read_ops=0.0,
                write_ops=0.0,
                read_bytes=0.0,
                write_bytes=0.0,
                io_wait_ms_per_op=0.0,
                mem_bytes=0.0,
            )
        return HostStepResult(grants=grants, flow_demands=[], demands=demands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysicalHost({self.name!r}, guests={len(self._guests)}, "
            f"cores={self.spec.cores})"
        )


def step_hosts(table: GuestTable, dt: float) -> None:
    """Resolve host-local resources for one step on every host of ``table``.

    Guests publish their rows, then one call per kernel serves every
    busy single-socket host at once: CPU water-filling, the block
    devices, the memory systems, each reusing its draw-free plan while
    the input rows it reads hold (:meth:`GuestTable.cached`); the
    slots' reusable grants are refreshed in place (``net_bytes`` still
    empty; the cluster fills those in after fabric allocation).  All-idle hosts keep their cached idle grants.
    NUMA hosts step through :meth:`PhysicalHost.step_local` and the
    table adopts the result.  Outcomes and RNG consumption are bitwise
    those of ``step_local`` on every host, the oracle the property tests
    hold the table to.
    """
    if table.dirty:
        table.rebuild()
    table.refresh()
    busy = table.busy
    if busy:
        utilization = table.cached("cpu", _cpu_plan, dt)
        hosts = table.hosts
        for h in busy:
            hosts[h].cpu_utilization = utilization[h]
        BlockDevice.allocate_table(table, dt)
        MemorySystem.evaluate_table(table, dt)
        table.emit_grants(dt)
    if table.idle:
        table.emit_idle_grants(dt)
    for h in table.scalar_hosts:
        table.adopt_scalar(h, table.hosts[h].step_local(dt))


def _cpu_plan(table: GuestTable, dt: float) -> List[float]:
    """The CPU allocation as a cached plan: it draws nothing and does not
    depend on ``dt``; ``table.cpu_grant`` holds the grant while it is
    reused."""
    return allocate_cpu_table(table)

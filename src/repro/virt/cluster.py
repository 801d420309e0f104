"""Datacenter assembler: hosts + guests + fabric as one simulator stepper.

The :class:`Cluster` is the root of the physical world.  Per fluid step it

1. runs each host's local allocation (CPU, disk, memory system),
2. resolves all cross-VM network-flow demands through the shared
   :class:`~repro.hardware.network.NetworkFabric`, and
3. delivers completed :class:`~repro.hardware.resources.ResourceGrant`
   records to every VM — updating cgroup counters and driving workload
   progress.

It also owns VM placement (boot, destroy, migrate), so both the cloud
manager and the libvirt facade are thin views over cluster state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.host import PhysicalHost, step_hosts
from repro.hardware.network import Flow, NetworkFabric
from repro.hardware.specs import R630, HostSpec
from repro.hardware.table import GuestTable
from repro.sim.engine import Simulator
from repro.virt.vm import VM, Priority

__all__ = ["Cluster"]


class Cluster:
    """The physical datacenter: hosts, network, and hosted VMs."""

    def __init__(self, sim: Simulator, default_spec: HostSpec = R630) -> None:
        self.sim = sim
        self.default_spec = default_spec
        self.hosts: Dict[str, PhysicalHost] = {}
        self.vms: Dict[str, VM] = {}
        #: Per-host placement index, each inner dict in *global boot
        #: order* — so ``vms_on_host`` stays O(VMs on that host) at
        #: 1,000-host scale while returning exactly the order the old
        #: full scan over ``self.vms`` produced.
        self._placement: Dict[str, Dict[str, VM]] = {}
        #: Per-host placement version, bumped whenever a VM arrives on or
        #: leaves that host — lets per-host readers cache inventory.
        self._placement_version: Dict[str, int] = {}
        self.fabric = NetworkFabric({})
        #: Every guest of every host, as one columnar table.
        self.table = GuestTable()
        sim.add_stepper(self)
        #: Count of fluid steps executed (diagnostics).
        self.steps = 0

    # ----------------------------------------------------------------- hosts
    def add_host(self, name: str, spec: Optional[HostSpec] = None) -> PhysicalHost:
        """Provision a physical server and register its NIC with the fabric."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = PhysicalHost(name, spec or self.default_spec, self.sim.rng)
        self.hosts[name] = host
        self._placement[name] = {}
        self._placement_version[name] = 0
        self.fabric.add_host(name, host.spec.nic.bytes_per_s)
        self.table.add_host(host)
        return host

    def add_hosts(self, count: int, prefix: str = "host", spec: Optional[HostSpec] = None) -> List[PhysicalHost]:
        """Provision ``count`` identical servers named ``prefix00``…"""
        return [self.add_host(f"{prefix}{i:02d}", spec) for i in range(count)]

    # ------------------------------------------------------------------- VMs
    def boot_vm(
        self,
        name: str,
        host_name: str,
        *,
        vcpus: int = 2,
        mem_gb: float = 8.0,
        priority: Priority = Priority.LOW,
        app_id: Optional[str] = None,
    ) -> VM:
        """Create a VM and place it on ``host_name``."""
        if name in self.vms:
            raise ValueError(f"VM {name!r} already exists")
        host = self._host(host_name)
        vm = VM(name, vcpus=vcpus, mem_gb=mem_gb, priority=priority, app_id=app_id)
        vm.set_host(host_name, host.spec.freq_hz, self.sim.now)
        host.attach(vm)
        self.vms[name] = vm
        self._placement[host_name][name] = vm
        self._placement_version[host_name] += 1
        return vm

    def destroy_vm(self, name: str) -> None:
        """Detach and delete a VM (its counters vanish with it)."""
        vm = self._vm(name)
        self._host(vm.host_name).detach(name)
        self._placement[vm.host_name].pop(name, None)
        self._placement_version[vm.host_name] += 1
        del self.vms[name]

    def migrate_vm(self, name: str, new_host: str) -> None:
        """Move a VM between hosts (instantaneous; future-work hook)."""
        vm = self._vm(name)
        if vm.host_name == new_host:
            return
        target = self._host(new_host)
        self._host(vm.host_name).detach(name)
        self._placement[vm.host_name].pop(name, None)
        self._placement_version[vm.host_name] += 1
        self._placement_version[new_host] += 1
        target.attach(vm)
        vm.set_host(new_host, target.spec.freq_hz, vm.boot_time)
        # Rebuild the target index in global boot order (migrations are
        # rare; the rebuild keeps vms_on_host identical to the old full
        # scan, where an arriving VM slots by boot order, not by arrival).
        self._placement[new_host] = {
            n: v for n, v in self.vms.items() if v.host_name == new_host
        }

    def vms_on_host(self, host_name: str) -> List[VM]:
        """All VMs currently placed on ``host_name`` (global boot order)."""
        self._host(host_name)
        return list(self._placement[host_name].values())

    def placement_version(self, host_name: str) -> int:
        """A counter that changes whenever ``host_name``'s VM set does.

        ``vms_on_host`` returns the same VMs in the same order for as
        long as it is unchanged.
        """
        self._host(host_name)
        return self._placement_version[host_name]

    # ------------------------------------------------------------------ step
    def step(self, dt: float) -> None:
        """One fluid step: host-local allocation, fabric, grant delivery.

        Steps every host through the cluster's one
        :class:`~repro.hardware.table.GuestTable`, then resolves flows
        through the fabric and delivers the table's reusable grants to
        the slots marked deliverable.  Slots of driverless, finished and
        parked guests (idle executors, see ``WorkloadDriver.idle``) are
        skipped: their grant is all-zero, an exact cgroup no-op, and a
        parked driver's ``consume`` would change nothing.  Launches come
        from scheduler heartbeats between ticks, so a row parked at
        publish time stays parked through delivery.  Flows and
        deliveries go host by host in row order.
        """
        table = self.table
        step_hosts(table, dt)

        # Resolve network-flow demands against the fabric.
        flows: List[Flow] = []
        flow_owners: List[tuple] = []
        vms = self.vms
        names = table.names
        host_names = table.host_names
        row_flows = table.flows
        for k in table.flow_rows:
            demander = names[k]
            host_name = host_names[k]
            for fd in row_flows[k]:
                peer = vms.get(fd.peer_vm)
                if peer is None or peer.host_name is None:
                    continue  # peer gone (e.g. destroyed mid-transfer)
                if fd.direction == "out":
                    src_vm, dst_vm = demander, fd.peer_vm
                    src_host, dst_host = host_name, peer.host_name
                else:
                    src_vm, dst_vm = fd.peer_vm, demander
                    src_host, dst_host = peer.host_name, host_name
                flows.append(
                    Flow(
                        src_vm=src_vm,
                        dst_vm=dst_vm,
                        src_host=src_host,
                        dst_host=dst_host,
                        bytes_per_s=fd.bytes_per_s,
                    )
                )
                flow_owners.append((k, fd.peer_vm))

        delivered = self.fabric.allocate(flows, dt)
        grants = table.grants
        for (k, peer), got in zip(flow_owners, delivered):
            nb = grants[k].net_bytes
            nb[peer] = nb.get(peer, 0.0) + got

        # Deliver grants.
        guests = table.guests
        for k in table.deliver_rows:
            guests[k].deliver(grants[k])
        self.steps += 1

    # ------------------------------------------------------------- internals
    def _host(self, name: Optional[str]) -> PhysicalHost:
        if name is None or name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        return self.hosts[name]

    def _vm(self, name: str) -> VM:
        if name not in self.vms:
            raise KeyError(f"unknown VM {name!r}")
        return self.vms[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(hosts={len(self.hosts)}, vms={len(self.vms)})"

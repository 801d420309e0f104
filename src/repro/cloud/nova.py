"""Nova-shaped cloud manager: flavors, instances, priorities, host views.

The node manager's information needs (§III-D2) define this API:
:meth:`CloudManager.instances_on_host` reports, for one physical server,
each hosted VM's priority and application membership — which also makes
the node manager robust to "possible changes in VM placement caused by
arrival of new VMs, VM migration, etc.", since it re-fetches every
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.placement import PlacementPolicy, SpreadPlacement
from repro.virt.cluster import Cluster
from repro.virt.hypervisor import Hypervisor
from repro.virt.libvirt_api import Connection
from repro.virt.vm import VM, Priority

__all__ = ["Flavor", "FLAVORS", "InstanceInfo", "CloudManager"]


@dataclass(frozen=True)
class Flavor:
    """An instance type (the paper's workers are m1.large-ish 2×8)."""

    name: str
    vcpus: int
    mem_gb: float

    def __post_init__(self) -> None:
        if self.vcpus <= 0 or self.mem_gb <= 0:
            raise ValueError("flavor resources must be positive")


#: Catalog loosely following OpenStack's classic flavor ladder.
FLAVORS: Dict[str, Flavor] = {
    f.name: f
    for f in (
        Flavor("m1.small", 1, 2.0),
        Flavor("m1.medium", 2, 4.0),
        Flavor("m1.large", 2, 8.0),
        Flavor("m1.xlarge", 4, 16.0),
        Flavor("m1.2xlarge", 8, 32.0),
    )
}


@dataclass(frozen=True)
class InstanceInfo:
    """What the cloud manager tells a node manager about one VM."""

    name: str
    host: str
    priority: Priority
    app_id: Optional[str]
    vcpus: int

    @property
    def is_high_priority(self) -> bool:
        """Whether this instance belongs to a protected application."""
        return self.priority is Priority.HIGH


class CloudManager:
    """Central control plane over the simulated datacenter."""

    def __init__(
        self, cluster: Cluster, placement: Optional[PlacementPolicy] = None
    ) -> None:
        self.cluster = cluster
        self.placement = placement or SpreadPlacement()
        self._hypervisors: Dict[str, Hypervisor] = {}
        #: Conflict notifications from node managers (future-work hook for
        #: migration of co-located high-priority applications, §IV-D2).
        self.conflict_reports: List[tuple] = []

    # ----------------------------------------------------------------- boot
    def boot(
        self,
        name: str,
        flavor: str = "m1.large",
        *,
        priority: Priority = Priority.LOW,
        app_id: Optional[str] = None,
        host: Optional[str] = None,
    ) -> VM:
        """Boot an instance; placement policy chooses the host if unset."""
        if flavor not in FLAVORS:
            raise KeyError(f"unknown flavor {flavor!r}")
        fl = FLAVORS[flavor]
        if host is None:
            host = self.placement.place(self.cluster, fl)
        return self.cluster.boot_vm(
            name,
            host,
            vcpus=fl.vcpus,
            mem_gb=fl.mem_gb,
            priority=priority,
            app_id=app_id,
        )

    def boot_many(
        self,
        prefix: str,
        count: int,
        flavor: str = "m1.large",
        *,
        priority: Priority = Priority.LOW,
        app_id: Optional[str] = None,
    ) -> List[VM]:
        """Boot ``count`` same-flavor instances named ``prefix000``…"""
        return [
            self.boot(f"{prefix}{i:03d}", flavor, priority=priority, app_id=app_id)
            for i in range(count)
        ]

    def delete(self, name: str) -> None:
        """Terminate an instance."""
        self.cluster.destroy_vm(name)

    # --------------------------------------------------------------- queries
    def instances_on_host(self, host_name: str) -> List[InstanceInfo]:
        """The §III-D2 node-manager query."""
        return [
            InstanceInfo(
                name=vm.name,
                host=host_name,
                priority=vm.priority,
                app_id=vm.app_id,
                vcpus=vm.vcpus,
            )
            for vm in self.cluster.vms_on_host(host_name)
        ]

    def placement_version(self, host_name: str) -> int:
        """Changes whenever ``instances_on_host(host_name)`` may have.

        The answer depends only on placement and on VM attributes fixed
        at boot, so an agent may reuse its last query while the version
        stands.
        """
        return self.cluster.placement_version(host_name)

    def hosts(self) -> List[str]:
        """Names of all physical servers."""
        return sorted(self.cluster.hosts)

    def hypervisor(self, host_name: str) -> Hypervisor:
        """The hypervisor control plane of one host (cached)."""
        hv = self._hypervisors.get(host_name)
        if hv is None:
            hv = Hypervisor(self.cluster.hosts[host_name])
            self._hypervisors[host_name] = hv
        return hv

    def connection(self, host_name: str) -> Connection:
        """A libvirt-shaped connection to one host."""
        return Connection(self.hypervisor(host_name))

    # ------------------------------------------------------------- conflicts
    def report_conflict(self, host_name: str, app_ids: List[str], now: float) -> None:
        """Node managers report colocated high-priority applications here;
        a production deployment would trigger migration (paper §IV-D2)."""
        self.conflict_reports.append((now, host_name, tuple(sorted(app_ids))))

    # ------------------------------------------------------------- migration
    def migrate(self, vm_name: str, target_host: str) -> None:
        """Live-migrate an instance (placement only; see MigrationManager
        for the brown-out model)."""
        self.cluster.migrate_vm(vm_name, target_host)

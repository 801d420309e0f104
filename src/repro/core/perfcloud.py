"""PerfCloud system assembly (paper Fig. 8).

"PerfCloud ... is composed of lightweight and decentralized agents that
run on individual physical servers in a cloud datacenter.  Each agent,
called the node manager, is responsible for the performance isolation of
high priority data-intensive applications hosted on a physical server."

:class:`PerfCloud` deploys one :class:`~repro.core.node_manager.NodeManager`
per host against the cloud manager.  There is deliberately **no** central
decision-making: the only global component is the cloud manager's
inventory API, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import PerfCloudConfig
from repro.core.node_manager import NodeManager
from repro.core.shards import ShardedControlPlane
from repro.resilience.ladder import ResiliencePolicy, ResilienceStats
from repro.sim.engine import Simulator

__all__ = ["PerfCloud"]


class PerfCloud:
    """The deployed system: one node-manager agent per physical server."""

    def __init__(
        self,
        sim: Simulator,
        cloud,
        config: Optional[PerfCloudConfig] = None,
        *,
        hosts: Optional[List[str]] = None,
        autostart: bool = True,
        controller_factory=None,
        fault_injector=None,
        resilience: Optional[ResiliencePolicy] = None,
        shard_workers: int = 0,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.cloud = cloud
        self.config = config or PerfCloudConfig()
        self.controller_factory = controller_factory
        #: Optional :class:`~repro.obs.telemetry.Telemetry` shared by
        #: every agent (incident ledger + span recorder); ``None`` keeps
        #: telemetry structurally off — the figure-run default.
        self.telemetry = telemetry
        #: Optional :class:`~repro.faults.injector.FaultInjector` standing
        #: between every agent and its libvirt facade (chaos testing).
        self.fault_injector = fault_injector
        #: Optional :class:`~repro.resilience.ladder.ResiliencePolicy`
        #: giving every agent a circuit breaker + degradation ladder.
        self.resilience = resilience
        # The benchmark harness (benchmarks/e2e/workloads.py) is the only
        # caller that passes ``shard_workers``, always 0; the parameter
        # goes when that harness next changes.  Every control interval
        # runs in this process.
        if shard_workers != 0:
            raise ValueError(
                f"shard_workers must be 0, got {shard_workers!r}"
            )
        #: One coordinator tick steps every agent as an independent shard
        #: (creation order), replacing per-host periodic events.
        self.control_plane = ShardedControlPlane(sim, self.config.interval_s)
        self.node_managers: Dict[str, NodeManager] = {}
        #: Agents decommissioned mid-run (:meth:`remove_host`), kept so
        #: run-level summaries still include everything they counted.
        self.retired: Dict[str, NodeManager] = {}
        for host in hosts if hosts is not None else cloud.hosts():
            self.node_managers[host] = NodeManager(
                sim, host, cloud, self.config, autostart=autostart,
                controller=controller_factory() if controller_factory else None,
                fault_injector=fault_injector,
                scheduler=self.control_plane,
                resilience=resilience,
                telemetry=telemetry,
            )

    def add_host(self, host_name: str) -> NodeManager:
        """Deploy an agent on a host added after construction.

        Late joiners run standalone (their own periodic task): their
        control grid starts at deployment time, not at the original
        coordinator epoch — exactly the old per-host behavior.
        """
        if host_name in self.node_managers:
            raise ValueError(f"agent already deployed on {host_name!r}")
        nm = NodeManager(
            self.sim, host_name, self.cloud, self.config,
            controller=self.controller_factory() if self.controller_factory else None,
            fault_injector=self.fault_injector,
            resilience=self.resilience,
            telemetry=self.telemetry,
        )
        self.node_managers[host_name] = nm
        return nm

    def remove_host(self, host_name: str) -> NodeManager:
        """Decommission an agent whose host is leaving (or whose node
        manager died) mid-run.

        The agent's control loop stops, but the object is retained in
        :attr:`retired`: every run-level aggregate —
        :meth:`survival_summary`, :meth:`resilience_summary`,
        :meth:`throttle_events` — keeps folding in what it counted while
        alive, instead of silently dropping a dead host's history.
        """
        nm = self.node_managers.pop(host_name, None)
        if nm is None:
            raise KeyError(f"no agent deployed on {host_name!r}")
        nm.stop()
        self.retired[host_name] = nm
        return nm

    def _all_agents(self):
        """(host, agent) pairs over live and retired agents, sorted."""
        merged = dict(self.retired)
        merged.update(self.node_managers)
        for host in sorted(merged):
            yield host, merged[host]

    def stop(self) -> None:
        """Halt every agent's control loop."""
        for nm in self.node_managers.values():
            nm.stop()

    def close(self) -> None:
        """End the deployment: stop every agent (idempotent)."""
        self.stop()

    def __enter__(self) -> "PerfCloud":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------------- query
    def throttle_events(self) -> List[tuple]:
        """All actuation events across hosts (retired included), time-ordered."""
        events = []
        for _, nm in self._all_agents():
            events.extend(nm.actions)
        return sorted(events)

    def survival_summary(self) -> Dict[str, int]:
        """Survival counters summed across every agent, retired included."""
        total: Dict[str, int] = {}
        for _, nm in self._all_agents():
            for key, value in nm.survival_summary().items():
                total[key] = total.get(key, 0) + value
        return total

    def resilience_summary(self) -> Dict[str, ResilienceStats]:
        """Per-host ladder + breaker posture (empty when resilience is off).

        Hosts whose agent was decommissioned mid-run report the posture
        they held at retirement rather than vanishing from the map.
        """
        out: Dict[str, ResilienceStats] = {}
        for host, nm in self._all_agents():
            stats = nm.resilience_summary()
            if stats is not None:
                out[host] = stats
        return out

    def all_agents_alive(self) -> bool:
        """Whether every agent's control loop is still running."""
        return all(nm.running for nm in self.node_managers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCloud(agents={len(self.node_managers)})"

"""Cluster stepping: one coordinator tick steps every host's agent.

Historically every :class:`~repro.core.node_manager.NodeManager` owned
its own :class:`~repro.sim.engine.PeriodicTask`, so a fig11-scale run
interleaved ``num_hosts`` separate periodic events per control interval
— each paying event-heap traffic and reschedule bookkeeping.  The
:class:`ShardedControlPlane` collapses them into **one** coordinator
task per deployment: each host's monitor → detector → identifier →
node-manager chain is an independent *shard*, and every tick runs each
shard's whole control interval in attach order.

That is byte-identical to the historical per-host tasks: the old tasks
were created back-to-back at deployment, giving them contiguous event
sequence numbers, identical epochs and identical intervals, so at every
interval they fired consecutively in creation order; the coordinator
occupies the first task's position and preserves exactly that order.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Simulator

__all__ = ["ShardedControlPlane"]


class ShardedControlPlane:
    """Steps every attached node manager from a single periodic task."""

    def __init__(self, sim: Simulator, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        self.sim = sim
        self.interval_s = float(interval_s)
        #: Attached shards by host name, in attach order (= step order).
        self._shards: Dict[str, object] = {}
        self._task = None
        #: Coordinator ticks run so far.
        self.ticks = 0

    # ------------------------------------------------------------ membership
    def attach(self, nm) -> None:
        """Register a node manager as a shard (idempotent per object).

        The coordinator task is created on the first attach, so it takes
        that agent's position in the event order.  Two *different*
        agents claiming one host are refused — a silent replacement
        would corrupt the attach order the byte-identity argument is
        built on.
        """
        current = self._shards.get(nm.host_name)
        if current is not None and current is not nm:
            raise ValueError(
                f"host {nm.host_name!r} already has an attached shard; "
                "detach the existing node manager before attaching a new "
                "one (silent replacement would corrupt the deterministic "
                "step order)"
            )
        self._shards[nm.host_name] = nm
        if self._task is None or self._task.stopped:
            self._task = self.sim.every(
                self.interval_s, self.tick, name="control-plane-shards"
            )

    def detach(self, nm) -> None:
        """Unregister a shard; the coordinator stops when none remain."""
        current = self._shards.get(nm.host_name)
        if current is not nm:
            return
        del self._shards[nm.host_name]
        if not self._shards and self._task is not None:
            self._task.stop()

    def attached(self, nm) -> bool:
        """Whether ``nm`` is a live shard of a running coordinator."""
        return (
            self._shards.get(nm.host_name) is nm
            and self._task is not None
            and not self._task.stopped
        )

    # ------------------------------------------------------------------ tick
    def tick(self) -> None:
        """One control interval: step every shard, in attach order."""
        self.ticks += 1
        # Iterate a snapshot: an attach or detach made during an
        # interval must not change this tick's step order.
        for nm in list(self._shards.values()):
            nm.control_interval()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = self._task is not None and not self._task.stopped
        return f"ShardedControlPlane(shards={len(self._shards)}, alive={alive})"

"""Sharded cluster stepping: one coordinator tick, one shard per host.

Historically every :class:`~repro.core.node_manager.NodeManager` owned
its own :class:`~repro.sim.engine.PeriodicTask`, so a fig11-scale run
interleaved ``num_hosts`` separate periodic events per control interval
— each paying event-heap traffic and reschedule bookkeeping.  The
:class:`ShardedControlPlane` collapses them into **one** coordinator
task per deployment: each host's monitor → detector → identifier →
node-manager chain is an independent *shard*, and the coordinator steps
the shards in attach order.

With ``workers=0`` each shard runs its whole interval in-process —
byte-identical to the historical per-host tasks: the old tasks were
created back-to-back at deployment, giving them contiguous event
sequence numbers, identical epochs and identical intervals, so at every
interval they fired consecutively in creation order; the coordinator
occupies the first task's position and preserves exactly that order.

With ``workers=N`` the tick becomes a three-phase pipeline over a
persistent fork pool (:mod:`repro.core.shardpool`):

* **phase A (parent)** — every shard's ``begin_interval``: libvirt
  sampling into its shared-memory metric plane, inventory snapshot,
  ticket construction; then each plane publishes the epoch.
* **phase B (pool)** — workers run the pure compute half (detection +
  identification) against their fork-inherited replicas, reading plane
  columns zero-copy, and return compact verdicts.
* **phase C (parent)** — verdicts are applied *in attach order*
  (actuation + absorption into the parent replicas), so the merged
  outcome is byte-identical to ``workers=0`` regardless of which worker
  finished first.  Dead or stale workers are detected by heartbeat and
  their tickets recomputed serially through the very same code path.

Phases reorder work *within* one simulator event only: phase A does all
sampling before any actuation instead of interleaving per host.  On a
fault-free facade those calls are pure reads/writes of per-host state
with no randomness, so the reordering is unobservable; with a fault
injector the per-call fault stream *would* see a different call order,
so deployments force ``workers=0`` whenever an injector is wired in.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.sim.engine import Simulator

__all__ = ["ShardedControlPlane"]


class ShardedControlPlane:
    """Steps every attached node manager from a single periodic task."""

    def __init__(self, sim: Simulator, interval_s: float, *, workers: int = 0,
                 ticket_free: bool = True) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers!r}")
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        self.sim = sim
        self.interval_s = float(interval_s)
        self.workers = int(workers)
        #: Skip the pool round-trip for quiet hosts (no detector in
        #: deviation, no caps in force) and run their compute half
        #: parent-side through the very same serial-fallback path — a
        #: routing decision only, so results are byte-identical either
        #: way.  Toggleable so both modes stay measurable.
        self.ticket_free = bool(ticket_free)
        #: Attached shards by host name, in attach order (= step order).
        self._shards: Dict[str, object] = {}
        self._task = None
        self._pool = None
        self._epoch = 0
        #: Wall-clock phase accounting (seconds) for the scale benchmark.
        self.timings: Dict[str, float] = {
            "begin_s": 0.0, "compute_s": 0.0, "complete_s": 0.0,
            "parallel_ticks": 0.0, "serial_ticks": 0.0,
            "fallback_tickets": 0.0, "ticket_free": 0.0,
        }

    # ------------------------------------------------------------ membership
    def attach(self, nm) -> None:
        """Register a node manager as a shard (idempotent per object).

        The coordinator task is created on the first attach, so it takes
        that agent's position in the event order.  Two *different*
        agents claiming one host are refused — a silent replacement
        would corrupt the attach order the byte-identity argument (and
        the worker host assignment) is built on.
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
        if self.workers > 0 and self._shards:
            pool = self._ensure_pool()
            if pool is not None:
                self._tick_parallel(pool)
                return
        self.timings["serial_ticks"] += 1
        # Iterate a snapshot: an attach or detach made during an
        # interval must not change this tick's step order.
        for nm in list(self._shards.values()):
            nm.control_interval()

    def _tick_parallel(self, pool) -> None:
        self._epoch += 1
        epoch = self._epoch
        self.timings["parallel_ticks"] += 1

        # Phase A: sample + snapshot every shard, publish every plane.
        t0 = time.perf_counter()
        work = []
        for nm in self._shards.values():
            ctx = nm.begin_interval(epoch)
            if ctx is not None:
                nm.monitor.plane.publish(epoch)
                work.append((nm, ctx))
        t1 = time.perf_counter()

        # Phase B: ship tickets to the pool (attach-order round-robin);
        # hosts a worker has never seen stay parent-side, and quiet
        # hosts skip the round-trip entirely (ticket-free ticks) — both
        # fall through to the phase-C serial path, so where a ticket
        # runs never changes what it computes.  Pool-bound tickets carry
        # the plane's row mapping, for the worker's view of it, and
        # victim-signal tails so the worker can close any history gap
        # the skipped ticks left in its replica.
        assignments: Dict[int, list] = {}
        skipped = 0
        host_slot = {
            host: idx % pool.workers
            for idx, host in enumerate(self._shards)
        }
        for nm, ctx in work:
            slot = host_slot[nm.host_name]
            if nm.host_name not in pool.known_hosts(slot):
                continue
            if self.ticket_free and nm.quiet_interval(ctx):
                skipped += 1
                continue
            assignments.setdefault(slot, []).append(ctx.ticket._replace(
                rows=nm.monitor.plane.row_mapping(),
                victim_tails=nm.victim_tails(ctx.ticket),
            ))
        results = pool.compute(assignments) if assignments else {}
        t2 = time.perf_counter()

        # Phase C: apply verdicts in attach order; anything the pool
        # could not deliver is recomputed serially right here.
        for nm, ctx in work:
            verdict = results.get(nm.host_name)
            if verdict is not None:
                nm.complete_interval(ctx, verdict, absorb=True)
            else:
                nm.compute_and_complete(ctx)
        t3 = time.perf_counter()

        self.timings["begin_s"] += t1 - t0
        self.timings["compute_s"] += t2 - t1
        self.timings["complete_s"] += t3 - t2
        self.timings["ticket_free"] += skipped
        # Deliberate skips are not fallbacks: a fallback is a ticket the
        # pool was *supposed* to compute but could not (unknown host,
        # worker death, deadline).
        self.timings["fallback_tickets"] += len(work) - skipped - len(results)

        # Tick boundary: every verdict absorbed, parent state == worker
        # state — the only moment a (re)spawn fork is valid.
        pool.ensure_started(self._worker_shards())

    def _ensure_pool(self):
        """The persistent pool, forked lazily at the first parallel tick."""
        if self._pool is None:
            from repro.core.shardpool import ShardPool

            self._pool = ShardPool(min(self.workers, max(1, len(self._shards))))
        if not self._pool.ensure_started(self._worker_shards()):
            return None
        return self._pool

    def _worker_shards(self):
        from repro.core.shardpool import WorkerShard

        return {host: WorkerShard(nm) for host, nm in self._shards.items()}

    def pool_stats(self) -> Optional[Dict[str, object]]:
        """Shard-pool health counters, or ``None`` before the first fork."""
        pool = self._pool
        if pool is None:
            return None
        return {
            "worker_deaths": pool.worker_deaths,
            "respawns": pool.respawns,
            "fallback_tickets": pool.fallback_tickets,
            "failed": pool.failed,
        }

    def shutdown(self) -> None:
        """Stop the worker pool (shards and coordinator task stay)."""
        if self._pool is not None:
            self._pool.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = self._task is not None and not self._task.stopped
        return (f"ShardedControlPlane(shards={len(self._shards)}, "
                f"workers={self.workers}, alive={alive})")

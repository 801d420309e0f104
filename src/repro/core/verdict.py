"""Pure compute half of the per-host control chain.

The node manager's Algorithm 1 interval splits into two halves around a
process boundary:

* **compute** (this module): detector deviation + incremental Pearson
  identification.  Reads only metric-plane columns and detector/
  identifier replica state — no simulator, no libvirt — and returns a
  compact picklable :class:`ControlVerdict`.
* **actuation** (stays in the parent): CUBIC control, cap application,
  reconciliation, accounting — everything touching live sim state.

A :class:`ComputeTicket` is the parent's per-(host, epoch) work order: a
frozen snapshot of the inventory facts the compute half needs (members,
suspects; plus the plane row mapping and victim tails on pool-bound
tickets).  :func:`compute_verdict` is the single code path used by
*both* sides — a pool worker runs it against its fork-inherited
replica, and the parent runs the very same function when falling back
to serial — so the two can never diverge behaviourally.

Determinism: tuples preserve the parent's insertion orders, floats cross
pickle bit-exactly, and the parent replays ``detector.record`` /
``identifier.judge`` with the verdict's values to keep its own replica
in lockstep (see ``core/shardpool.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, NamedTuple, Tuple

__all__ = ["ComputeTicket", "AppIdentification", "ControlVerdict",
           "compute_verdict"]

#: (resource, victim-signal kind, suspect usage metric) — the §III-B
#: pairing, in the exact order the serial interval runs them.
RESOURCE_CHAINS = (("io", "io", "io_bytes_ps"), ("cpu", "cpi", "llc_miss_rate"))


class ComputeTicket(NamedTuple):
    """One host's compute work order for one coordinator epoch.

    The records of this module are named tuples: immutable, picklable,
    and cheaper to build than frozen dataclasses on the per-interval
    path.
    """

    host: str
    epoch: int
    now: float
    #: app_id → member VM names, in the parent's insertion order.
    app_members: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Low-priority VM names with monitor history (identification input).
    suspects: Tuple[str, ...]
    #: Whether identification runs at all (any low-priority VM present).
    do_identify: bool
    #: Plane VM → row assignment snapshot (worker view rebuild).  Only a
    #: pool worker reads it, so it is filled in at pool dispatch.
    rows: Tuple[Tuple[str, int], ...] = ()
    #: Victim-signal tails per app — ``(app_id, (io_times, io_values),
    #: (cpi_times, cpi_values))`` — shipped only on pool-bound tickets so
    #: a worker can fill any signal gap left by ticket-free ticks it
    #: never saw (see ``WorkerShard.reconcile_victims``).  Plain float
    #: tuples: bit-exact across pickle.
    victim_tails: Tuple[tuple, ...] = ()
    #: Whether the compute half should measure spans (telemetry on).
    trace: bool = False


class AppIdentification(NamedTuple):
    """One ``identify`` call's outcome for one (app, resource)."""

    app_id: str
    resource: str
    #: Whether identification actually scored (enough victim history).
    #: When False the serial path takes ``identify``'s early return —
    #: no scores *and no TTL refresh* — so the absorbing parent must
    #: not call ``judge`` either.
    ran: bool
    correlations: Dict[str, float]
    antagonists: FrozenSet[str]


class ControlVerdict(NamedTuple):
    """Everything the actuation half needs from one host's compute."""

    host: str
    epoch: int
    #: (app_id, iowait_std, cpi_std) per application, in order.
    detections: Tuple[Tuple[str, float, float], ...]
    identifications: Tuple[AppIdentification, ...]
    do_identify: bool
    #: (span kind, wall-clock seconds) measured by the compute half when
    #: the ticket requested tracing — carried home on the verdict pipe
    #: under ``shard_workers=N``, produced identically on the serial
    #: path.  Wall-clock only: never read by anything deterministic.
    spans: Tuple[Tuple[str, float], ...] = ()


def compute_verdict(
    detector,
    identifier,
    plane,
    ticket: ComputeTicket,
    samples,
    series_of: Callable[[str, str], object],
    config,
) -> ControlVerdict:
    """Run one host's detection + identification; mutates the replicas.

    ``samples`` is the live monitor sample dict in the parent and ``{}``
    in a worker — equivalent by the sampling invariant: whenever any
    sample exists the plane is fresh at ``ticket.now`` and the detector
    takes the columnar path, and when none exists both sides hand the
    detector the same empty membership.  ``series_of(name, metric)``
    resolves a suspect's usage series (the parent's history dict, or the
    worker's lazily-extended fork copy of it).
    """
    app_members = dict(ticket.app_members)
    trace = ticket.trace
    t0 = time.perf_counter() if trace else 0.0
    detections = detector.evaluate(ticket.now, samples, app_members, plane=plane)
    t1 = time.perf_counter() if trace else 0.0
    identifications = []
    if ticket.do_identify:
        for app_id in app_members:
            for resource, kind, metric in RESOURCE_CHAINS:
                victim = detector.signal(app_id, kind)
                ran = len(victim) >= config.corr_min_samples
                result = identifier.identify(
                    resource,
                    victim,
                    {name: series_of(name, metric) for name in ticket.suspects},
                    ticket.now,
                )
                identifications.append(AppIdentification(
                    app_id=app_id,
                    resource=resource,
                    ran=ran,
                    correlations=dict(result.correlations),
                    antagonists=frozenset(result.antagonists),
                ))
    spans: Tuple[Tuple[str, float], ...] = ()
    if trace:
        t2 = time.perf_counter()
        spans = (("detector.evaluate", t1 - t0),
                 ("identifier.identify", t2 - t1))
    return ControlVerdict(
        host=ticket.host,
        epoch=ticket.epoch,
        detections=tuple(
            (app_id, d.iowait_std, d.cpi_std) for app_id, d in detections.items()
        ),
        identifications=tuple(identifications),
        do_identify=ticket.do_identify,
        spans=spans,
    )

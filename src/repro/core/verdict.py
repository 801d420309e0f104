"""Compute step of the per-host control chain.

The node manager's Algorithm 1 interval runs in three steps: sample,
compute, actuate.  This module is the compute step — detector deviation
plus incremental Pearson identification.  It reads only metric-plane
columns, the monitor's history and the detector/identifier state — no
simulator, no libvirt — and returns a :class:`ControlVerdict` the
actuation step (CUBIC control, cap application, reconciliation,
accounting) and the incident ledger consume.

A :class:`ComputeTicket` is the node manager's per-interval work order:
a frozen snapshot of the inventory facts the compute step needs
(members, suspects).
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Mapping, NamedTuple, Tuple

__all__ = ["ComputeTicket", "AppIdentification", "ControlVerdict",
           "compute_verdict"]

#: (resource, victim-signal kind, suspect usage metric) — the §III-B
#: pairing, in the order every interval runs them.
RESOURCE_CHAINS = (("io", "io", "io_bytes_ps"), ("cpu", "cpi", "llc_miss_rate"))


class ComputeTicket(NamedTuple):
    """One host's compute work order for one control interval.

    The records of this module are named tuples: immutable and cheaper
    to build than frozen dataclasses on the per-interval path.
    """

    now: float
    #: app_id → member VM names, in inventory order.
    app_members: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Low-priority VM names with monitor history (identification input).
    suspects: Tuple[str, ...]
    #: Whether identification runs at all (any low-priority VM present).
    do_identify: bool
    #: Whether the compute step should measure spans (telemetry on).
    trace: bool = False


class AppIdentification(NamedTuple):
    """One ``identify`` call's outcome for one (app, resource)."""

    app_id: str
    resource: str
    #: Whether identification actually scored (enough victim history).
    #: When False ``identify`` took its early return — no scores and no
    #: TTL refresh — and the incident ledger records no verdict.
    ran: bool
    correlations: Dict[str, float]
    antagonists: FrozenSet[str]


class ControlVerdict(NamedTuple):
    """Everything the actuation step needs from one host's compute."""

    #: (app_id, iowait_std, cpi_std) per application, in order.
    detections: Tuple[Tuple[str, float, float], ...]
    identifications: Tuple[AppIdentification, ...]
    do_identify: bool
    #: (span kind, wall-clock seconds) measured by the compute step when
    #: the ticket requested tracing.  Wall-clock only: never read by
    #: anything deterministic.
    spans: Tuple[Tuple[str, float], ...] = ()


def compute_verdict(
    detector,
    identifier,
    plane,
    ticket: ComputeTicket,
    samples,
    history: Mapping[str, Mapping[str, object]],
    config,
) -> ControlVerdict:
    """Run one host's detection + identification.

    Mutates the detector's signal history and the identifier's scoring
    and TTL state.  ``samples`` is the monitor's sample dict for this
    interval; ``history`` maps each VM to its per-metric series (the
    monitor's ``history``), from which the suspects' usage series are
    read.
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
                    {name: history[name][metric] for name in ticket.suspects},
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
        detections=tuple(
            (app_id, d.iowait_std, d.cpi_std) for app_id, d in detections.items()
        ),
        identifications=tuple(identifications),
        do_identify=ticket.do_identify,
        spans=spans,
    )

"""Incident ledger: one record per detector deviation, full lifecycle.

The paper's loop is detect → identify → mitigate; the figures only show
its *outputs*.  An :class:`Incident` captures the loop itself: the
moment an application's iowait/CPI deviation crossed its threshold, the
per-interval suspect correlation scores while it stayed above, the
identification verdicts (which low-priority VMs were judged
antagonists), every throttle/release actuation the controller issued,
degradation-ladder rung transitions that happened while the incident was
open, and finally the interval where the deviation fell back under the
threshold with no caps left in force.

Determinism: the ledger is built exclusively from simulation data — the
:class:`~repro.core.verdict.ControlVerdict` values (detections, scores,
judged antagonist sets) and the node manager's ``actions``/ladder
state.  It never reads wall-clock spans, so equal seeds give a
byte-identical ledger.

Keying: incidents are identified as ``{host}/{app_id}/{resource}#{seq}``
with ``seq`` a per-(host, app, resource) ordinal, so scenario and chaos
runs can assert on specific incidents stably across code changes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

__all__ = ["Incident", "IncidentLedger"]


class Incident:
    """Lifecycle of one (host, app, resource) deviation episode."""

    __slots__ = ("id", "host", "app_id", "resource", "seq", "threshold",
                 "onset_time", "onset_value", "peak_time", "peak_value",
                 "intervals", "identified", "actions", "transitions",
                 "resolved_time")

    def __init__(self, host: str, app_id: str, resource: str, seq: int,
                 threshold: float, onset_time: float, onset_value: float) -> None:
        self.host = host
        self.app_id = app_id
        self.resource = resource
        self.seq = seq
        self.id = f"{host}/{app_id}/{resource}#{seq}"
        self.threshold = threshold
        self.onset_time = onset_time
        self.onset_value = onset_value
        self.peak_time = onset_time
        self.peak_value = onset_value
        #: Per-interval record while open: {"t", "value"} plus, when
        #: identification scored, {"correlations", "antagonists"}.
        self.intervals: List[Dict[str, object]] = []
        #: Antagonist VM -> first interval it was judged guilty.
        self.identified: Dict[str, float] = {}
        #: (time, vm, normalized-cap-or-None) actuations for this resource.
        self.actions: List[Tuple[float, str, Optional[float]]] = []
        #: Ladder transitions on this host while open: (time, from, to).
        self.transitions: List[Tuple[float, str, str]] = []
        self.resolved_time: Optional[float] = None

    @property
    def open(self) -> bool:
        return self.resolved_time is None

    @property
    def throttles(self) -> int:
        return sum(1 for _, _, cap in self.actions if cap is not None)

    @property
    def releases(self) -> int:
        return sum(1 for _, _, cap in self.actions if cap is None)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "host": self.host,
            "app_id": self.app_id,
            "resource": self.resource,
            "threshold": self.threshold,
            "onset_time": self.onset_time,
            "onset_value": self.onset_value,
            "peak_time": self.peak_time,
            "peak_value": self.peak_value,
            "intervals": self.intervals,
            "identified": dict(sorted(self.identified.items())),
            "actions": [list(a) for a in self.actions],
            "transitions": [list(t) for t in self.transitions],
            "resolved_time": self.resolved_time,
        }

    def summary_jsonable(self) -> Dict[str, object]:
        """Compact form attached to scenario metrics / corpus records."""
        return {
            "id": self.id,
            "resource": self.resource,
            "onset": self.onset_time,
            "resolved": self.resolved_time,
            "peak": self.peak_value,
            "antagonists": sorted(self.identified),
            "throttles": self.throttles,
            "releases": self.releases,
        }

    def render(self) -> str:
        """Human-readable per-incident report."""
        lines = [
            f"incident {self.id}",
            f"  onset    t={self.onset_time:g}  value={self.onset_value:.6g}"
            f"  threshold={self.threshold:g}",
            f"  peak     t={self.peak_time:g}  value={self.peak_value:.6g}",
        ]
        for vm, t in sorted(self.identified.items(), key=lambda kv: (kv[1], kv[0])):
            lines.append(f"  identify t={t:g}  antagonist={vm}")
        for t, vm, cap in self.actions:
            what = "release" if cap is None else f"throttle cap={cap:.4g}"
            lines.append(f"  actuate  t={t:g}  vm={vm}  {what}")
        for t, old, new in self.transitions:
            lines.append(f"  ladder   t={t:g}  {old} -> {new}")
        if self.resolved_time is None:
            lines.append("  status   OPEN")
        else:
            lines.append(f"  resolved t={self.resolved_time:g}"
                         f"  ({self.resolved_time - self.onset_time:g}s open)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "resolved"
        return f"Incident({self.id!r}, {state}, peak={self.peak_value:.4g})"


class IncidentLedger:
    """Run-level collection of incidents, fed once per control interval."""

    def __init__(self) -> None:
        self.incidents: List[Incident] = []
        self.opened = 0
        self.resolved = 0
        self._open: Dict[Tuple[str, str, str], Incident] = {}
        self._seq: Dict[Tuple[str, str, str], int] = {}
        #: Read position into each node manager's ``actions`` list.
        self._action_cursor: Dict[str, int] = {}
        #: Read position into each host ladder's ``transitions`` list.
        self._transition_cursor: Dict[str, int] = {}

    # -------------------------------------------------------------- feeding
    def observe(self, nm, now: float, verdict) -> None:
        """Fold one completed control interval into the ledger."""
        host = nm.host_name
        self._consume_actions(nm, host)
        self._consume_transitions(nm, host)
        idents = {(i.app_id, i.resource): i for i in verdict.identifications}
        h_io, h_cpi = nm.config.h_io, nm.config.h_cpi
        for app_id, iowait_std, cpi_std in verdict.detections:
            for resource, value, threshold in (
                ("io", iowait_std, h_io), ("cpu", cpi_std, h_cpi),
            ):
                self._observe_one(nm, host, app_id, resource, value,
                                  threshold, now, idents)

    def _observe_one(self, nm, host: str, app_id: str, resource: str,
                     value: float, threshold: float, now: float,
                     idents) -> None:
        key = (host, app_id, resource)
        inc = self._open.get(key)
        deviating = value > threshold
        if inc is None:
            if not deviating:
                return
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
            inc = Incident(host, app_id, resource, seq, threshold, now, value)
            self._open[key] = inc
            self.incidents.append(inc)
            self.opened += 1
        if value > inc.peak_value:
            inc.peak_value = value
            inc.peak_time = now
        entry: Dict[str, object] = {"t": now, "value": value}
        ident = idents.get((app_id, resource))
        if ident is not None and ident.ran:
            entry["correlations"] = dict(sorted(ident.correlations.items()))
            entry["antagonists"] = sorted(ident.antagonists)
            for vm in ident.antagonists:
                inc.identified.setdefault(vm, now)
        inc.intervals.append(entry)
        if not deviating and not self._caps_active(nm, resource):
            inc.resolved_time = now
            del self._open[key]
            self.resolved += 1

    def _caps_active(self, nm, resource: str) -> bool:
        """Whether any cap for ``resource`` is still in force on the host."""
        for (_, r), state in nm.cap_states.items():
            if r == resource and not state.released:
                return True
        for (_, r), cap in nm.static_caps.items():
            if r == resource and cap is not None:
                return True
        return False

    def _consume_actions(self, nm, host: str) -> None:
        start = self._action_cursor.get(host, 0)
        actions = nm.actions
        if start >= len(actions):
            return
        self._action_cursor[host] = len(actions)
        for t, vm, resource, cap in actions[start:]:
            for (h, _, r), inc in self._open.items():
                if h == host and r == resource:
                    inc.actions.append((t, vm, cap))

    def _consume_transitions(self, nm, host: str) -> None:
        ladder = getattr(nm, "ladder", None)
        if ladder is None:
            return
        start = self._transition_cursor.get(host, 0)
        transitions = ladder.transitions
        if start >= len(transitions):
            return
        self._transition_cursor[host] = len(transitions)
        for t, old, new in transitions[start:]:
            for (h, _, _), inc in self._open.items():
                if h == host:
                    inc.transitions.append((t, old, new))

    # -------------------------------------------------------------- reading
    @property
    def open(self) -> int:
        """Incidents currently open."""
        return len(self._open)

    def find(self, incident_id: str) -> Optional[Incident]:
        for inc in self.incidents:
            if inc.id == incident_id:
                return inc
        return None

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "opened": self.opened,
            "resolved": self.resolved,
            "open": sorted(inc.id for inc in self._open.values()),
            "incidents": [inc.to_jsonable() for inc in self.incidents],
        }

    def summary_jsonable(self) -> List[Dict[str, object]]:
        return [inc.summary_jsonable() for inc in self.incidents]

    def digest(self) -> str:
        """Stable content hash of the full ledger (byte-identity checks)."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def render(self) -> str:
        """Run-level report: every incident, in open order."""
        if not self.incidents:
            return "no incidents"
        head = (f"{self.opened} incident(s), {self.resolved} resolved, "
                f"{self.open} open")
        return "\n\n".join([head] + [inc.render() for inc in self.incidents])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IncidentLedger(opened={self.opened}, "
                f"resolved={self.resolved}, open={self.open})")

"""Ring-buffered span recorder for control-interval tracing.

A *span* is one timed step of the control loop — ``monitor.sample``,
``detector.evaluate``, ``identifier.identify``, ``identifier.judge``,
``actuation`` — tagged with the host it ran for, the simulation time of
its interval and its wall-clock duration.  The recorder is built for the
hot path:

* all storage is preallocated (ndarray rings + interning tables), so a
  ``record`` call allocates nothing once a (kind, host) pair has been
  seen;
* the ring overwrites the oldest spans past ``capacity`` instead of
  growing — ``dropped`` says how many fell off;
* simulation time gives spans a deterministic ordering axis, while the
  wall-clock duration is measurement-only and never feeds back into the
  simulation (telemetry must not perturb figure outputs).

The ``detector.evaluate`` and ``identifier.identify`` spans are measured
inside :func:`repro.core.verdict.compute_verdict` and carried on its
verdict to the node manager, which records them.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Fixed-capacity recorder of (kind, host, sim-time, duration) spans."""

    __slots__ = ("capacity", "recorded", "_t", "_dur", "_kind", "_host",
                 "_kind_codes", "_kinds", "_host_codes", "_hosts")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        #: Total spans ever recorded (monotone; ring holds the newest).
        self.recorded = 0
        self._t = np.empty(self.capacity, dtype=np.float64)
        self._dur = np.empty(self.capacity, dtype=np.float64)
        self._kind = np.empty(self.capacity, dtype=np.int32)
        self._host = np.empty(self.capacity, dtype=np.int32)
        self._kind_codes: Dict[str, int] = {}
        self._kinds: List[str] = []
        self._host_codes: Dict[str, int] = {}
        self._hosts: List[str] = []

    # ------------------------------------------------------------- recording
    def _intern(self, table: Dict[str, int], names: List[str], name: str) -> int:
        code = table.get(name)
        if code is None:
            code = table[name] = len(names)
            names.append(name)
        return code

    def record(self, kind: str, host: str, t: float, dur_s: float) -> None:
        """Append one span (overwrites the oldest past capacity)."""
        idx = self.recorded % self.capacity
        self._t[idx] = t
        self._dur[idx] = dur_s
        self._kind[idx] = self._intern(self._kind_codes, self._kinds, kind)
        self._host[idx] = self._intern(self._host_codes, self._hosts, host)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """Spans overwritten because the ring was full."""
        return max(0, self.recorded - self.capacity)

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    # --------------------------------------------------------------- reading
    def spans(self) -> Iterator[Dict[str, object]]:
        """Retained spans, oldest first, as plain dicts."""
        held = len(self)
        start = self.recorded - held
        for seq in range(start, self.recorded):
            idx = seq % self.capacity
            yield {
                "seq": seq,
                "kind": self._kinds[self._kind[idx]],
                "host": self._hosts[self._host[idx]],
                "t": float(self._t[idx]),
                "dur_s": float(self._dur[idx]),
            }

    def by_kind(self) -> Dict[str, int]:
        """Retained span count per kind (exposition surface)."""
        held = len(self)
        if held == 0:
            return {}
        start = self.recorded - held
        idx = np.arange(start, self.recorded) % self.capacity
        counts = np.bincount(self._kind[idx], minlength=len(self._kinds))
        return {name: int(counts[code])
                for name, code in sorted(self._kind_codes.items())}

    def export_jsonl(self, path: Optional[str] = None) -> str:
        """One JSON object per line, oldest span first."""
        text = "".join(json.dumps(s, sort_keys=True) + "\n"
                       for s in self.spans())
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecorder(recorded={self.recorded}, "
                f"capacity={self.capacity}, dropped={self.dropped})")

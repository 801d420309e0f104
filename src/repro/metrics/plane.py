"""Columnar metric plane: struct-of-arrays store for one host's telemetry.

The monitor historically kept a dict-of-dicts of per-(VM, metric)
:class:`~repro.metrics.timeseries.TimeSeries` and appended to each one
scalar at a time — 5 ring-buffer appends per VM per control interval.
The :class:`MetricPlane` turns that inside out: the whole host is one
preallocated 2-D ring whose rows are the shared time grid and whose
columns are the (VM slot, metric) cells, plus a presence bitmap of the
same shape, and the monitor lands a whole interval with a single batched
:meth:`MetricPlane.ingest` call — two contiguous row writes.  Detector
deviations (std of iowait ratio / CPI across an app's VMs) become masked
reads of the *latest row* instead of per-VM dict probes, and the
identifier's suspect alignment reads one cell column.

Reads go through :class:`PlaneSeries`, a stable per-(VM, metric) facade
with the full ``TimeSeries`` read API (``tail``, ``lookup``,
``value_at``, iteration, …).  A series materializes its (times, values)
pair lazily — the grid timestamps where its presence bit is set — and
caches it against the plane's version counter, so repeated reads inside
one control interval are free.

Semantics deliberately preserved from the TimeSeries world:

* a VM with no measurement at an instant simply has a hole (the
  missing-as-zero alignment of §III-B happens at lookup time, exactly as
  before);
* eviction is oldest-first and pruning is cutoff-based, with per-series
  ``dropped`` counters so incremental readers can detect window slides.

One intentional difference: capacity bounds the shared *row* count
(time grid length), not each series individually — per-series length is
therefore still ≤ capacity, but all series on one plane evict the same
oldest instants together.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.timeseries import lookup_nearest, nearest_index

__all__ = ["MetricPlane", "PlaneSeries"]

_LOOKUP_TOL = 1e-6

_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


class MetricPlane:
    """Struct-of-arrays store: one 2-D ring ``[time row, VM slot × metric]``.

    Cell ``slot * len(metrics) + k`` of a row holds metric ``k`` of the
    VM in ``slot``.

    Parameters
    ----------
    metrics:
        The fixed set of metric names this plane stores.
    capacity:
        Maximum number of retained time rows (oldest evicted first).
    """

    def __init__(self, metrics: Sequence[str], capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        if not metrics:
            raise ValueError("MetricPlane needs at least one metric")
        self.metrics: Tuple[str, ...] = tuple(metrics)
        self.capacity = int(capacity)
        #: Bumped on every mutation; PlaneSeries caches key off it.
        self.version = 0
        #: metric -> its offset inside a VM slot's cells.
        self._offset: Dict[str, int] = {m: k for k, m in enumerate(self.metrics)}
        times = min(2 * self.capacity, 64)
        slots = 8
        self._start = 0
        self._end = 0
        self._grid, self._vals, self._mask = self._alloc_storage(times, slots)
        self._slot_of: Dict[str, int] = {}
        self._vm_of_slot: List[Optional[str]] = [None] * slots
        self._free_slots: List[int] = list(range(slots - 1, -1, -1))
        #: Evicted/pruned present-cell counts per (vm, metric) — survives
        #: VM removal so a stale reader sees a consistent ``appended``.
        self._dropped: Dict[Tuple[str, str], int] = {}
        #: Sum of every per-series ``_dropped`` increment (eviction,
        #: pruning *and* VM removal); exported as
        #: ``repro_plane_dropped_total``.
        self.dropped_total = 0
        self._grid_view: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- write
    def ingest(self, now: float, samples: Mapping[str, Mapping[str, float]]) -> None:
        """Land one control interval: a row across every (VM, metric) cell.

        ``samples`` maps VM name → {metric: value}; omitted metrics leave
        a hole (presence bit stays clear) — the §III-B missing-sample
        case.  Unknown VM names are registered on first sight.
        """
        if not samples:
            return
        t = float(now)
        if self._end > self._start and t < self._grid[self._end - 1] - 1e-9:
            raise ValueError(
                f"non-monotonic ingest: {now!r} after {self._grid[self._end - 1]!r}"
            )
        slot_of = self._slot_of
        for vm in samples:
            if vm not in slot_of:
                self._register(vm)
        if self._end == self._grid.size:
            self._make_room()
        offset = self._offset
        width = len(self.metrics)
        cells = self._vals.shape[1]
        vals = [0.0] * cells
        mask = [False] * cells
        for vm, metrics in samples.items():
            base = slot_of[vm] * width
            for m, value in metrics.items():
                k = base + offset[m]
                vals[k] = value
                mask[k] = True
        j = self._end
        self._grid[j] = t
        self._vals[j] = vals
        self._mask[j] = mask
        self._end += 1
        if self._end - self._start > self.capacity:
            self._evict_rows(1)
        self.version += 1
        self._grid_view = None

    def prune_before(self, cutoff: float) -> int:
        """Drop rows older than ``cutoff``; returns present cells dropped.

        The retention analogue of ``TimeSeries.prune_before``, applied to
        every series on the plane in one O(log n) cut.
        """
        g = self._grid_times()
        k = int(np.searchsorted(g, cutoff - 1e-9, side="left"))
        if not k:
            return 0
        dropped = self._evict_rows(k)
        self.version += 1
        self._grid_view = None
        return dropped

    def remove_vm(self, vm: str) -> None:
        """Free a departed VM's slot (its retained cells count as dropped)."""
        slot = self._slot_of.pop(vm, None)
        if slot is None:
            return
        width = len(self.metrics)
        block = self._mask[self._start:self._end, slot * width:(slot + 1) * width]
        for m, n in zip(self.metrics, block.sum(axis=0).tolist()):
            if n:
                self._dropped[(vm, m)] = self._dropped.get((vm, m), 0) + n
                self.dropped_total += n
        block[...] = False
        self._vm_of_slot[slot] = None
        self._free_slots.append(slot)
        self.version += 1

    # ------------------------------------------------------------------ read
    @property
    def last_time(self) -> Optional[float]:
        """Timestamp of the newest row, or None when empty."""
        return float(self._grid[self._end - 1]) if self._end > self._start else None

    def vms(self) -> List[str]:
        """Registered VM names (insertion order)."""
        return list(self._slot_of)

    def series(self, vm: str, metric: str) -> "PlaneSeries":
        """A stable read facade over one (VM, metric) cell column."""
        if metric not in self._offset:
            raise KeyError(f"unknown metric {metric!r}")
        return PlaneSeries(self, vm, metric)

    def latest(self, metric: str, names: Iterable[str]) -> Dict[str, float]:
        """Values of ``metric`` in the newest row for ``names``.

        Only VMs with a present cell in that row appear in the result
        (insertion order of ``names``) — the detector's masked-row read:
        one bitmap probe per member instead of a dict of samples.
        """
        out: Dict[str, float] = {}
        if self._end <= self._start:
            return out
        j = self._end - 1
        vals = self._vals[j]
        mask = self._mask[j]
        width = len(self.metrics)
        offset = self._offset[metric]
        for n in names:
            slot = self._slot_of.get(n)
            if slot is not None:
                k = slot * width + offset
                if mask[k]:
                    out[n] = float(vals[k])
        return out

    def dropped_of(self, vm: str, metric: str) -> int:
        """Evicted/pruned present cells of one (VM, metric) series."""
        return self._dropped.get((vm, metric), 0)

    # ------------------------------------------------------------- internals
    def _cell(self, vm: str, metric: str) -> Optional[int]:
        """Cell column of one (VM, metric) series, or None if unregistered."""
        slot = self._slot_of.get(vm)
        if slot is None:
            return None
        return slot * len(self.metrics) + self._offset[metric]

    def _alloc_storage(
        self, times: int, slots: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allocate zeroed (grid, values, mask) storage of one shape.

        Every (re)allocation — initial build, slot doubling, row growth —
        funnels through here.
        """
        cells = slots * len(self.metrics)
        return (np.zeros(times), np.zeros((times, cells)),
                np.zeros((times, cells), dtype=bool))

    def _register(self, vm: str) -> None:
        if not self._free_slots:
            self._grow_slots()
        slot = self._free_slots.pop()
        self._slot_of[vm] = slot
        self._vm_of_slot[slot] = vm

    def _grow_slots(self) -> None:
        old = len(self._vm_of_slot)
        new = old * 2
        times = self._grid.size
        grid, vals, mask = self._alloc_storage(times, new)
        cells = self._vals.shape[1]
        grid[:] = self._grid
        vals[:, :cells] = self._vals
        mask[:, :cells] = self._mask
        self._grid, self._vals, self._mask = grid, vals, mask
        self._grid_view = None
        self._vm_of_slot.extend([None] * (new - old))
        self._free_slots.extend(range(new - 1, old - 1, -1))

    def _evict_rows(self, k: int) -> int:
        """Advance the live region past its ``k`` oldest rows."""
        lo = self._start
        hi = lo + k
        dropped = 0
        block = self._mask[lo:hi]
        if block.any():
            width = len(self.metrics)
            per_cell = block.sum(axis=0)
            for cell in np.nonzero(per_cell)[0].tolist():
                slot, offset = divmod(cell, width)
                vm = self._vm_of_slot[slot]
                n = int(per_cell[cell])
                dropped += n
                if vm is not None:
                    key = (vm, self.metrics[offset])
                    self._dropped[key] = self._dropped.get(key, 0) + n
                    self.dropped_total += n
        self._start = hi
        return dropped

    def _grid_times(self) -> np.ndarray:
        if self._grid_view is None:
            v = self._grid[self._start:self._end]
            v.flags.writeable = False
            self._grid_view = v
        return self._grid_view

    def _make_room(self) -> None:
        """Compact live rows to the front, growing up to 2x capacity."""
        lo, hi = self._start, self._end
        n = hi - lo
        size = self._grid.size
        if n > size // 2:  # mostly live: grow (never past 2x capacity)
            new_size = min(max(2 * size, 64), 2 * self.capacity)
            grid, vals, mask = self._alloc_storage(new_size, len(self._vm_of_slot))
        else:  # disjoint regions: shift live rows down
            grid, vals, mask = self._grid, self._vals, self._mask
        grid[:n] = self._grid[lo:hi]
        vals[:n] = self._vals[lo:hi]
        mask[:n] = self._mask[lo:hi]
        self._grid, self._vals, self._mask = grid, vals, mask
        self._start, self._end = 0, n
        self._grid_view = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricPlane(metrics={len(self.metrics)}, "
                f"vms={len(self._slot_of)}, rows={self._end - self._start})")


class PlaneSeries:
    """Read-only ``TimeSeries``-shaped view of one (VM, metric) cell column.

    Stable object: the monitor hands the same instance out across
    intervals, so incremental readers can key state off its identity.
    Materialized (times, values) arrays are cached against the plane's
    version counter; a VM whose slot was removed reads as empty.
    """

    __slots__ = ("plane", "vm", "metric", "name", "capacity",
                 "_cv", "_t", "_v")

    def __init__(self, plane: MetricPlane, vm: str, metric: str) -> None:
        self.plane = plane
        self.vm = vm
        self.metric = metric
        self.name = f"{vm}.{metric}"
        self.capacity = plane.capacity
        self._cv = -1
        self._t: np.ndarray = _EMPTY
        self._v: np.ndarray = _EMPTY

    # --------------------------------------------------------------- arrays
    def _materialize(self) -> None:
        plane = self.plane
        if self._cv == plane.version:
            return
        cell = plane._cell(self.vm, self.metric)
        if cell is None:
            self._t, self._v = _EMPTY, _EMPTY
        else:
            lo, hi = plane._start, plane._end
            m = plane._mask[lo:hi, cell]
            t = plane._grid[lo:hi][m]
            v = plane._vals[lo:hi, cell][m]
            t.flags.writeable = False
            v.flags.writeable = False
            self._t, self._v = t, v
        self._cv = plane.version

    @property
    def dropped(self) -> int:
        """Samples evicted so far (capacity overflow + retention pruning)."""
        return self.plane.dropped_of(self.vm, self.metric)

    @property
    def appended(self) -> int:
        """Total samples ever ingested for this series (retained + dropped)."""
        return len(self) + self.dropped

    # ------------------------------------------------------------------ read
    def __len__(self) -> int:
        self._materialize()
        return int(self._t.size)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        self._materialize()
        return iter(zip(self._t.tolist(), self._v.tolist()))

    @property
    def last_time(self) -> Optional[float]:
        self._materialize()
        return float(self._t[-1]) if self._t.size else None

    @property
    def last_value(self) -> Optional[float]:
        self._materialize()
        return float(self._v[-1]) if self._v.size else None

    def times(self) -> np.ndarray:
        self._materialize()
        return self._t.copy()

    def values(self) -> np.ndarray:
        self._materialize()
        return self._v.copy()

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        self._materialize()
        return self._t, self._v

    def tail(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        if n <= 0:
            return _EMPTY, _EMPTY
        self._materialize()
        lo = max(0, self._t.size - int(n))
        return self._t[lo:], self._v[lo:]

    def window(self, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        self._materialize()
        lo = int(np.searchsorted(self._t, start - 1e-9, side="left"))
        hi = int(np.searchsorted(self._t, end + 1e-9, side="right"))
        return self._t[lo:hi], self._v[lo:hi]

    def value_at(self, time: float, tolerance: float = _LOOKUP_TOL) -> Optional[float]:
        self._materialize()
        if self._t.size == 0:
            return None
        idx = nearest_index(self._t, float(time))
        if abs(self._t[idx] - time) <= tolerance:
            return float(self._v[idx])
        return None

    def lookup(
        self, times: Iterable[float], tolerance: float = _LOOKUP_TOL
    ) -> Tuple[np.ndarray, np.ndarray]:
        q = np.asarray(
            times if isinstance(times, (np.ndarray, list, tuple)) else list(times),
            dtype=float,
        )
        self._materialize()
        return lookup_nearest(self._t, self._v, q, tolerance)

    def resampled_at(self, times: Iterable[float], missing: float = 0.0) -> np.ndarray:
        values, present = self.lookup(times)
        if missing != 0.0:
            values[~present] = missing
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlaneSeries({self.name!r}, n={len(self)})"

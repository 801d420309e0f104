"""Columnar metric plane: struct-of-arrays store for one host's telemetry.

The monitor historically kept a dict-of-dicts of per-(VM, metric)
:class:`~repro.metrics.timeseries.TimeSeries` and appended to each one
scalar at a time — 5 ring-buffer appends per VM per control interval.
The :class:`MetricPlane` turns that inside out: each metric is one
preallocated 2-D ring (rows = VM slots, columns = the shared time grid)
plus a presence bitmap, and the monitor lands a whole interval with a
single batched :meth:`MetricPlane.ingest` call.  Detector deviations
(std of iowait ratio / CPI across an app's VMs) become masked reads of
the *latest column* instead of per-VM dict probes, and the identifier's
suspect alignment reads contiguous row slices.

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

One intentional difference: capacity bounds the shared *column* count
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
    """Struct-of-arrays store: ``metric → 2-D ring [vm row, time column]``.

    Parameters
    ----------
    metrics:
        The fixed set of metric names this plane stores.
    capacity:
        Maximum number of retained time columns (oldest evicted first).
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
        cols = min(2 * self.capacity, 64)
        rows = 8
        self._start = 0
        self._end = 0
        self._grid, self._vals, self._mask = self._alloc_storage(rows, cols)
        self._row_of: Dict[str, int] = {}
        self._vm_of_row: List[Optional[str]] = [None] * rows
        self._free_rows: List[int] = list(range(rows - 1, -1, -1))
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
        """Land one control interval: a column across every metric.

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
        row_of = self._row_of
        for vm in samples:
            if vm not in row_of:
                self._register(vm)
        if self._end == self._grid.size:
            self._make_room()
        # Bound after any growth above, which replaces the storage.
        vals, mask = self._vals, self._mask
        j = self._end
        self._grid[j] = t
        for m in self.metrics:
            mask[m][:, j] = False
        for vm, metrics in samples.items():
            row = row_of[vm]
            for m, value in metrics.items():
                vals[m][row, j] = float(value)
                mask[m][row, j] = True
        self._end += 1
        if self._end - self._start > self.capacity:
            self._evict_columns(1)
        self.version += 1
        self._grid_view = None

    def prune_before(self, cutoff: float) -> int:
        """Drop columns older than ``cutoff``; returns present cells dropped.

        The retention analogue of ``TimeSeries.prune_before``, applied to
        every series on the plane in one O(log n) cut.
        """
        g = self._grid_times()
        k = int(np.searchsorted(g, cutoff - 1e-9, side="left"))
        if not k:
            return 0
        dropped = self._evict_columns(k)
        self.version += 1
        self._grid_view = None
        return dropped

    def remove_vm(self, vm: str) -> None:
        """Free a departed VM's row (its retained cells count as dropped)."""
        row = self._row_of.pop(vm, None)
        if row is None:
            return
        lo, hi = self._start, self._end
        for m in self.metrics:
            n = int(self._mask[m][row, lo:hi].sum())
            if n:
                self._dropped[(vm, m)] = self._dropped.get((vm, m), 0) + n
                self.dropped_total += n
            self._mask[m][row, lo:hi] = False
        self._vm_of_row[row] = None
        self._free_rows.append(row)
        self.version += 1

    # ------------------------------------------------------------------ read
    @property
    def last_time(self) -> Optional[float]:
        """Timestamp of the newest column, or None when empty."""
        return float(self._grid[self._end - 1]) if self._end > self._start else None

    def vms(self) -> List[str]:
        """Registered VM names (insertion order)."""
        return list(self._row_of)

    def series(self, vm: str, metric: str) -> "PlaneSeries":
        """A stable read facade over one (VM, metric) row."""
        if metric not in self._vals:
            raise KeyError(f"unknown metric {metric!r}")
        return PlaneSeries(self, vm, metric)

    def latest(self, metric: str, names: Iterable[str]) -> Dict[str, float]:
        """Values of ``metric`` in the newest column for ``names``.

        Only VMs with a present cell in that column appear in the result
        (insertion order of ``names``) — the detector's masked-column
        read: one bitmap probe per member instead of a dict of samples.
        """
        out: Dict[str, float] = {}
        if self._end <= self._start:
            return out
        j = self._end - 1
        vals = self._vals[metric]
        mask = self._mask[metric]
        for n in names:
            row = self._row_of.get(n)
            if row is not None and mask[row, j]:
                out[n] = float(vals[row, j])
        return out

    def dropped_of(self, vm: str, metric: str) -> int:
        """Evicted/pruned present cells of one (VM, metric) series."""
        return self._dropped.get((vm, metric), 0)

    # ------------------------------------------------------------- internals
    def _alloc_storage(
        self, rows: int, cols: int
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Allocate zeroed (grid, values, masks) storage of one shape.

        Every (re)allocation — initial build, row doubling, column
        growth — funnels through here.
        """
        vals = {m: np.zeros((rows, cols)) for m in self.metrics}
        mask = {m: np.zeros((rows, cols), dtype=bool) for m in self.metrics}
        return np.zeros(cols), vals, mask

    def _register(self, vm: str) -> None:
        if not self._free_rows:
            self._grow_rows()
        row = self._free_rows.pop()
        self._row_of[vm] = row
        self._vm_of_row[row] = vm

    def _grow_rows(self) -> None:
        old = len(self._vm_of_row)
        new = old * 2
        cols = self._grid.size
        grid, vals, mask = self._alloc_storage(new, cols)
        grid[:cols] = self._grid
        for m in self.metrics:
            vals[m][:old] = self._vals[m]
            mask[m][:old] = self._mask[m]
        self._grid, self._vals, self._mask = grid, vals, mask
        self._grid_view = None
        self._vm_of_row.extend([None] * (new - old))
        self._free_rows.extend(range(new - 1, old - 1, -1))

    def _evict_columns(self, k: int) -> int:
        """Advance the live region past its ``k`` oldest columns."""
        lo = self._start
        hi = lo + k
        dropped = 0
        for m in self.metrics:
            block = self._mask[m][:, lo:hi]
            if not block.any():
                continue
            per_row = block.sum(axis=1)
            for row in np.nonzero(per_row)[0]:
                vm = self._vm_of_row[row]
                n = int(per_row[row])
                dropped += n
                if vm is not None:
                    self._dropped[(vm, m)] = self._dropped.get((vm, m), 0) + n
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
        """Compact live columns to the front, growing up to 2x capacity."""
        n = self._end - self._start
        size = self._grid.size
        if n > size // 2:  # mostly live: grow (never past 2x capacity)
            new_size = min(max(2 * size, 64), 2 * self.capacity)
            rows = len(self._vm_of_row)
            grid, vals, mask = self._alloc_storage(rows, new_size)
            grid[:n] = self._grid[self._start:self._end]
            for m in self.metrics:
                vals[m][:, :n] = self._vals[m][:, self._start:self._end]
                mask[m][:, :n] = self._mask[m][:, self._start:self._end]
            self._grid, self._vals, self._mask = grid, vals, mask
        else:  # disjoint regions: shift live columns down
            self._grid[:n] = self._grid[self._start:self._end]
            for m in self.metrics:
                self._vals[m][:, :n] = self._vals[m][:, self._start:self._end]
                self._mask[m][:, :n] = self._mask[m][:, self._start:self._end]
        self._start, self._end = 0, n
        self._grid_view = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricPlane(metrics={len(self.metrics)}, "
                f"vms={len(self._row_of)}, cols={self._end - self._start})")


class PlaneSeries:
    """Read-only ``TimeSeries``-shaped view of one (VM, metric) row.

    Stable object: the monitor hands the same instance out across
    intervals, so incremental readers can key state off its identity.
    Materialized (times, values) arrays are cached against the plane's
    version counter; a VM whose row was removed reads as empty.
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
        row = plane._row_of.get(self.vm)
        if row is None:
            self._t, self._v = _EMPTY, _EMPTY
        else:
            lo, hi = plane._start, plane._end
            m = plane._mask[self.metric][row, lo:hi]
            t = plane._grid[lo:hi][m]
            v = plane._vals[self.metric][row, lo:hi][m]
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

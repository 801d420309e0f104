"""Bounded timestamped sample store.

The performance monitor keeps one :class:`TimeSeries` per (VM, metric).
Samples arrive at the 5-second monitoring cadence; the identifier reads
aligned tails of a victim series and each suspect series.  A bounded
capacity keeps long simulations O(1) in memory per metric.

Storage layout
--------------
Samples live in a pair of contiguous ``float64`` ndarrays; the live
region is ``buf[start:end]``.  Appends write at ``end`` in O(1); when the
buffer is exhausted the live region is compacted to the front (or the
buffer doubled, up to ``2 * capacity``), so appends stay amortized O(1).
Because times are non-decreasing, every read — :meth:`tail`,
:meth:`window`, :meth:`value_at`, :meth:`lookup`, :meth:`prune_before` —
is a binary search (``np.searchsorted``) plus an O(1) slice instead of a
full conversion of the history.

Reads return **cached read-only views** of the backing arrays, rebuilt
lazily after each mutation.  A view is valid until the next ``append`` /
``extend`` / ``prune_before``; copy it if you need it to survive one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

__all__ = ["TimeSeries", "lookup_nearest", "nearest_index"]

#: Default time tolerance for exact-instant lookups (seconds).
_LOOKUP_TOL = 1e-6

_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


def nearest_index(t: np.ndarray, time: float) -> int:
    """Index into sorted ``t`` nearest ``time`` (first occurrence on ties)."""
    ins = int(np.searchsorted(t, time, side="left"))
    if ins == t.size:
        idx = ins - 1
    elif ins > 0 and abs(t[ins - 1] - time) <= abs(t[ins] - time):
        idx = ins - 1
    else:
        idx = ins
    if idx > 0 and t[idx - 1] == t[idx]:
        idx = int(np.searchsorted(t, t[idx], side="left"))
    return idx


def lookup_nearest(
    t: np.ndarray,
    v: np.ndarray,
    q: np.ndarray,
    tolerance: float = _LOOKUP_TOL,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-sample lookup over sorted timestamps ``t``.

    The shared core of :meth:`TimeSeries.lookup` and the metric plane's
    column reads: returns ``(values, present)`` where ``present[i]`` says
    whether a sample exists within ``tolerance`` of ``q[i]``; absent
    entries of ``values`` are 0.  Ties pick the first occurrence, matching
    the historical argmin-based lookup.
    """
    out = np.zeros(q.size)
    if t.size == 0 or q.size == 0:
        return out, np.zeros(q.size, dtype=bool)
    ins = np.searchsorted(t, q, side="left")
    left = np.clip(ins - 1, 0, t.size - 1)
    right = np.clip(ins, 0, t.size - 1)
    pick_left = (ins > 0) & (
        (ins == t.size) | (np.abs(t[left] - q) <= np.abs(t[right] - q))
    )
    idx = np.where(pick_left, left, right)
    # First occurrence among duplicate timestamps, as argmin would pick.
    idx = np.searchsorted(t, t[idx], side="left")
    present = np.abs(t[idx] - q) <= tolerance
    out[present] = v[idx[present]]
    return out, present


class TimeSeries:
    """Append-only (time, value) samples with a bounded history.

    Parameters
    ----------
    capacity:
        Maximum number of retained samples; the oldest are evicted first.
    name:
        Optional label used in error messages and repr.
    """

    __slots__ = ("capacity", "name", "dropped", "_buf_t", "_buf_v", "_start",
                 "_end", "_view_t", "_view_v")

    def __init__(self, capacity: int = 4096, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        self.name = name
        #: Samples evicted so far (capacity overflow + retention pruning).
        #: ``appended - len(self)``; lets incremental readers detect that
        #: the retained window slid without diffing the arrays.
        self.dropped = 0
        size = min(2 * self.capacity, 16)
        self._buf_t = np.empty(size)
        self._buf_v = np.empty(size)
        self._start = 0
        self._end = 0
        self._view_t: Optional[np.ndarray] = None
        self._view_v: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- write
    def append(self, time: float, value: float) -> None:
        """Record ``value`` observed at simulated ``time``.

        Times must be non-decreasing — the monitor samples on a clock, so a
        regression indicates a bug upstream.
        """
        t = float(time)
        if self._end > self._start and t < self._buf_t[self._end - 1] - 1e-9:
            raise ValueError(
                f"non-monotonic append to {self.name or 'series'}: "
                f"{time!r} after {self._buf_t[self._end - 1]!r}"
            )
        if self._end == self._buf_t.size:
            self._make_room()
        self._buf_t[self._end] = t
        self._buf_v[self._end] = float(value)
        self._end += 1
        if self._end - self._start > self.capacity:
            self._start += 1  # capacity eviction: oldest out first
            self.dropped += 1
        self._view_t = self._view_v = None

    def extend(self, samples: Iterable[Tuple[float, float]]) -> None:
        """Append many (time, value) samples in order."""
        for t, v in samples:
            self.append(t, v)

    def prune_before(self, cutoff: float) -> int:
        """Drop samples older than ``cutoff``; returns how many were dropped.

        Retention pruning for long-running monitors: the capacity bound
        caps memory per series, this caps *staleness* (a VM that idles
        for hours must not keep hour-old samples alive forever).  O(log n):
        the cut point is a binary search and eviction just advances the
        live region's start.
        """
        t = self._times_view()
        dropped = int(np.searchsorted(t, cutoff - 1e-9, side="left"))
        if dropped:
            self._start += dropped
            self.dropped += dropped
            self._view_t = self._view_v = None
        return dropped

    # ------------------------------------------------------------------ read
    def __len__(self) -> int:
        return self._end - self._start

    def __bool__(self) -> bool:
        return self._end > self._start

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times_view().tolist(), self._values_view().tolist()))

    @property
    def appended(self) -> int:
        """Total samples ever appended (retained + dropped)."""
        return (self._end - self._start) + self.dropped

    @property
    def last_time(self) -> Optional[float]:
        """Timestamp of the newest sample, or None when empty."""
        return float(self._buf_t[self._end - 1]) if self._end > self._start else None

    @property
    def last_value(self) -> Optional[float]:
        """Newest sample value, or None when empty."""
        return float(self._buf_v[self._end - 1]) if self._end > self._start else None

    def times(self) -> np.ndarray:
        """All retained timestamps as a float array (copy)."""
        return self._times_view().copy()

    def values(self) -> np.ndarray:
        """All retained values as a float array (copy)."""
        return self._values_view().copy()

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` as read-only views — the zero-copy fast path.

        Valid until the next mutation of this series; copy to keep longer.
        """
        return self._times_view(), self._values_view()

    def tail(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The most recent ``n`` samples as read-only ``(times, values)`` views."""
        if n <= 0:
            return _EMPTY, _EMPTY
        lo = max(0, len(self) - int(n))
        return self._times_view()[lo:], self._values_view()[lo:]

    def window(self, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= time <= end`` as read-only views."""
        t = self._times_view()
        lo = int(np.searchsorted(t, start - 1e-9, side="left"))
        hi = int(np.searchsorted(t, end + 1e-9, side="right"))
        return t[lo:hi], self._values_view()[lo:hi]

    def value_at(self, time: float, tolerance: float = _LOOKUP_TOL) -> Optional[float]:
        """The value sampled at ``time`` (within ``tolerance``), else None.

        O(log n): binary search for the nearest timestamp (first occurrence
        on ties, matching the historical argmin-based lookup).
        """
        t = self._times_view()
        if t.size == 0:
            return None
        idx = nearest_index(t, float(time))
        if abs(t[idx] - time) <= tolerance:
            return float(self._values_view()[idx])
        return None

    def lookup(
        self, times: Iterable[float], tolerance: float = _LOOKUP_TOL
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`value_at` over many instants.

        Returns ``(values, present)`` where ``present[i]`` says whether a
        sample exists within ``tolerance`` of ``times[i]``; absent entries
        of ``values`` are 0.  One ``np.searchsorted`` pass for the whole
        query — the building block of suspect/victim alignment.
        """
        q = np.asarray(
            times if isinstance(times, (np.ndarray, list, tuple)) else list(times),
            dtype=float,
        )
        return lookup_nearest(
            self._times_view(), self._values_view(), q, tolerance
        )

    def resampled_at(self, times: Iterable[float], missing: float = 0.0) -> np.ndarray:
        """Values at each requested time, ``missing`` where absent.

        Implements the paper's *missing-as-zero* alignment: a suspect VM
        with no measured LLC activity at an instant contributes 0, not a
        hole (§III-B).
        """
        values, present = self.lookup(times)
        if missing != 0.0:
            values[~present] = missing
        return values

    # ------------------------------------------------------------- internals
    def _times_view(self) -> np.ndarray:
        if self._view_t is None:
            v = self._buf_t[self._start:self._end]
            v.flags.writeable = False
            self._view_t = v
        return self._view_t

    def _values_view(self) -> np.ndarray:
        if self._view_v is None:
            v = self._buf_v[self._start:self._end]
            v.flags.writeable = False
            self._view_v = v
        return self._view_v

    def _make_room(self) -> None:
        """Compact the live region to the front, growing up to 2x capacity.

        At the steady-state buffer size (``2 * capacity``) a compaction
        moves at most ``capacity`` live samples after at least ``capacity``
        appends, keeping appends amortized O(1); the compacted regions
        never overlap because eviction bounds the live region to half the
        buffer.
        """
        n = self._end - self._start
        size = self._buf_t.size
        if n > size // 2:  # buffer mostly live: grow (never past 2x capacity)
            new_size = min(max(2 * size, 16), 2 * self.capacity)
            new_t = np.empty(new_size)
            new_v = np.empty(new_size)
            new_t[:n] = self._buf_t[self._start:self._end]
            new_v[:n] = self._buf_v[self._start:self._end]
            self._buf_t, self._buf_v = new_t, new_v
        else:  # disjoint regions (start >= n): shift live samples down
            self._buf_t[:n] = self._buf_t[self._start:self._end]
            self._buf_v[:n] = self._buf_v[self._start:self._end]
        self._start, self._end = 0, n
        self._view_t = self._view_v = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = ""
        if self._end > self._start:
            span = (f", t=[{self._buf_t[self._start]:.1f}, "
                    f"{self._buf_t[self._end - 1]:.1f}]")
        return f"TimeSeries({self.name!r}, n={len(self)}{span})"

"""Deviation metrics and normalization helpers.

The detection signal in PerfCloud is a *population standard deviation
across the VMs of one application on one host* — of the block-iowait ratio
for disk contention (§III-A1) and of CPI for processor contention
(§III-A2).  This module implements those group statistics plus the
peak-normalization used throughout the paper's figures.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "RollingStats",
    "group_std",
    "safe_ratio",
    "coefficient_of_variation",
    "normalize_by_peak",
    "percentile_summary",
]


class RollingStats:
    """Incremental mean/std over the last ``window`` pushed values.

    Welford/West update: each :meth:`push` is O(1) — one value enters the
    running (mean, M2) aggregates and, once the window is full, the
    expired value leaves them — so per-interval deviation statistics never
    re-reduce the whole tail.  ``window=None`` keeps cumulative stats over
    everything ever pushed.

    The detector maintains one per (application, signal) so every control
    interval reads the current rolling baseline in O(1) instead of
    recomputing ``np.std(tail)`` from scratch.
    """

    __slots__ = ("window", "_ring", "_n", "_mean", "_m2")

    def __init__(self, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self.window = window
        self._ring: Optional[Deque[float]] = deque() if window is not None else None
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        """Admit one sample, expiring the oldest once the window is full."""
        x = float(value)
        if self._ring is not None:
            self._ring.append(x)
            if len(self._ring) > self.window:
                self._remove(self._ring.popleft())
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)

    def _remove(self, x: float) -> None:
        if self._n == 1:
            self._n, self._mean, self._m2 = 0, 0.0, 0.0
            return
        old_mean = self._mean
        self._n -= 1
        self._mean = (old_mean * (self._n + 1) - x) / self._n
        self._m2 -= (x - self._mean) * (x - old_mean)
        if self._m2 < 0.0:  # guard tiny negative float residue
            self._m2 = 0.0

    @property
    def n(self) -> int:
        """How many samples are currently inside the window."""
        return self._n

    @property
    def mean(self) -> float:
        """Mean of the windowed samples (0.0 when empty)."""
        return self._mean if self._n else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the windowed samples (0.0 when n < 2)."""
        if self._n < 2:
            return 0.0
        return self._m2 / self._n

    @property
    def std(self) -> float:
        """Population standard deviation of the windowed samples."""
        return float(np.sqrt(self.variance))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RollingStats(window={self.window}, n={self._n}, "
                f"mean={self.mean:.6g}, std={self.std:.6g})")


def group_std(values: Iterable[float]) -> float:
    """Population standard deviation of a group of per-VM metric values.

    Returns 0.0 for groups of fewer than two members: deviation across a
    single VM is undefined and must not trigger the detector.
    Non-finite members are ignored (a VM with no samples yet).

    Runs the ufunc sequence ``np.std`` runs on a 1-D float64 array, in
    the same order — sum, divide by n, subtract, square in place, sum,
    divide by n, square root — without its Python wrapper, which costs
    far more than the arithmetic on a handful of VMs.  The result equals
    ``float(np.std(vals))`` bit for bit: the sums are the same pairwise
    ``np.add.reduce`` and ``math.sqrt`` is correctly rounded like
    ``np.sqrt``.
    """
    vals = [v for v in values if v is not None and math.isfinite(v)]
    n = len(vals)
    if n < 2:
        return 0.0
    arr = np.array(vals, dtype=float)
    x = arr - np.add.reduce(arr) / n
    np.multiply(x, x, out=x)
    return math.sqrt(np.add.reduce(x) / n)


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` with a default for empty denominators.

    Used for the block-iowait ratio ``io_wait_time / io_serviced``: a VM
    that serviced no I/O in an interval has no wait ratio; PerfCloud treats
    it as 0 (no contention evidence).
    """
    if denominator is None or abs(denominator) < 1e-12:
        return default
    return float(numerator) / float(denominator)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std/mean of a sample; 0.0 when the mean is ~0 or n < 2."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    mean = float(arr.mean())
    if abs(mean) < 1e-12:
        return 0.0
    return float(arr.std() / abs(mean))


def normalize_by_peak(values: Sequence[float]) -> np.ndarray:
    """Scale a series so its maximum magnitude is 1 (paper Figs. 5, 6).

    An all-zero series is returned unchanged.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.copy()
    peak = float(np.max(np.abs(arr)))
    if peak < 1e-12:
        return arr.copy()
    return arr / peak


def percentile_summary(values: Sequence[float]) -> dict:
    """Five-number-ish summary used for the Fig. 12 variability boxplots."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile_summary of an empty sample")
    return {
        "min": float(arr.min()),
        "p25": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "p75": float(np.percentile(arr, 75)),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "iqr": float(np.percentile(arr, 75) - np.percentile(arr, 25)),
        "n": int(arr.size),
    }

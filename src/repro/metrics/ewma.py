"""Exponentially weighted moving average.

The performance monitor applies EWMA "to smooth out short-term variations
in the data collected over 5 second intervals" (paper §III-D1).  A plain
recursive form is used::

    s_0 = x_0
    s_t = alpha * x_t + (1 - alpha) * s_{t-1}

``alpha`` close to 1 tracks the raw signal; close to 0 smooths heavily.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["Ewma", "ewma_series"]


class Ewma:
    """Stateful EWMA filter for one metric stream."""

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self._state: Optional[float] = None
        self._count = 0

    @property
    def value(self) -> Optional[float]:
        """Current smoothed value, or None before the first update."""
        return self._state

    @property
    def count(self) -> int:
        """Number of samples folded in."""
        return self._count

    def update(self, sample: float) -> float:
        """Fold in ``sample`` and return the new smoothed value."""
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError(f"EWMA update with non-finite sample {sample!r}")
        if self._state is None:
            self._state = x
        else:
            self._state = self.alpha * x + (1.0 - self.alpha) * self._state
        self._count += 1
        return self._state

    def reset(self) -> None:
        """Forget all folded-in samples."""
        self._state = None
        self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ewma(alpha={self.alpha}, value={self._state}, count={self._count})"


def ewma_series(samples, alpha: float = 0.5) -> np.ndarray:
    """Vectorized convenience: EWMA-smooth a whole sample array at once."""
    filt = Ewma(alpha)
    return np.asarray([filt.update(x) for x in np.asarray(samples, dtype=float)])

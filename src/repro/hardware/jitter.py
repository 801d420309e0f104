"""Persistent per-entity performance skew.

Interference does not hit colocated VMs i.i.d. every second: a VM whose
vCPUs land on the antagonist's socket, or whose requests queue behind the
flooder's bursts, stays disadvantaged for tens of seconds (NUMA effects,
scheduler affinity, queue position).  This *persistent* cross-VM skew is
exactly what PerfCloud's deviation metrics detect — fast white noise
would be averaged away by the 5-second counters and the EWMA filter.

:class:`PersistentBias` models it as a per-entity multiplicative factor
``exp(z * sigma - sigma^2 / 2)`` where ``z`` is a standard normal draw
held for a geometrically-distributed epoch (mean ``mean_epoch_steps``
fluid steps) and ``sigma`` is supplied by the caller *each step* — so the
skew magnitude tracks current contention while its direction persists.
The ``- sigma^2/2`` term keeps the factor mean-1, leaving aggregate
throughput unbiased.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List

import numpy as np

__all__ = ["PersistentBias"]


class PersistentBias:
    """Epoch-persistent lognormal bias factors, one per entity key.

    Two flavours:

    * ``folded=False`` (default) — mean-1 two-sided skew
      ``exp(z*sigma - sigma^2/2)``: some entities luckier, some unluckier,
      aggregate unbiased.  Used for queue-wait dispersion, where "lucky"
      just means shorter waits.
    * ``folded=True`` — one-sided penalty ``exp(|z|*sigma)`` ≥ 1:
      contention heterogeneity can only *slow* an entity down, never speed
      it up.  Used for CPI skew — a VM cannot run faster than its
      uncontended baseline because a neighbour is thrashing the cache.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_epoch_steps: float = 12.0,
        folded: bool = False,
    ) -> None:
        if mean_epoch_steps < 1:
            raise ValueError("mean_epoch_steps must be >= 1")
        self._rng = rng
        self.mean_epoch_steps = float(mean_epoch_steps)
        self.folded = folded
        #: key -> [z draw, steps remaining in epoch], updated in place
        self._state: Dict[Hashable, List] = {}

    def value(self, key: Hashable, sigma: float) -> float:
        """Current bias factor for ``key`` at skew scale ``sigma``."""
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        state = self._state.get(key)
        if state is None or state[1] <= 0:
            z = float(self._rng.standard_normal())
            steps = int(self._rng.geometric(1.0 / self.mean_epoch_steps))
            state = self._state[key] = [z, steps]
        state[1] -= 1
        z = state[0]
        if sigma == 0.0:
            return 1.0
        if self.folded:
            return math.exp(abs(z) * sigma)
        return math.exp(z * sigma - 0.5 * sigma * sigma)

    def forget(self, key: Hashable) -> None:
        """Drop the epoch state for a departed/idle entity."""
        self._state.pop(key, None)

    def forget_all(self, keys: Iterable[Hashable]) -> None:
        """Drop the epoch state of every key in ``keys``."""
        state = self._state
        if state:
            for key in keys:
                state.pop(key, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PersistentBias(entities={len(self._state)})"

"""Workload-driver interface and measurement helpers.

A :class:`WorkloadDriver` is the active element inside a VM: each fluid
step it publishes a :class:`~repro.hardware.resources.ResourceDemand` and
receives a :class:`~repro.hardware.resources.ResourceGrant`.  Drivers are
deliberately *open-loop about time* — they know what they want per second
and how much total work remains, and the hardware decides how fast that
work actually proceeds.  Interference is therefore an emergent outcome,
never scripted.

:class:`RateTracker` converts consumed amounts back into windowed rates —
how the evaluation measures, e.g., fio's achieved IOPS (Fig. 1) or a
suspect VM's I/O throughput time series (Fig. 5b).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Optional, Tuple

from repro.hardware.resources import PerfProfile, ResourceDemand, ResourceGrant

__all__ = ["WorkloadDriver", "RateTracker"]


class WorkloadDriver(abc.ABC):
    """Behavioural interface of everything that runs inside a VM."""

    #: Microarchitectural personality; used by the memory-system model.
    profile: PerfProfile = PerfProfile()

    #: Whether the driver is parked: the guest row skips it this tick.
    #: A driver may report ``True`` only while :meth:`demand` would
    #: return ``ZERO_DEMAND`` *and* :meth:`consume` of that step's grant
    #: changes nothing (no state, no callback, no RNG draw) — then
    #: neither call is made and the grant is not delivered.  Drivers
    #: that advance through idle steps (episodic ``TimedDriver`` off-
    #: phases) keep the default.
    idle: bool = False

    @abc.abstractmethod
    def demand(self) -> ResourceDemand:
        """Resource appetite for the upcoming step (rates, per second)."""

    @abc.abstractmethod
    def consume(self, grant: ResourceGrant) -> None:
        """Fold in what the hardware actually delivered for one step."""

    @property
    def finished(self) -> bool:
        """Whether the workload has run to completion (default: never)."""
        return False


class RateTracker:
    """Windowed rate measurement over consumed amounts.

    Call :meth:`record` once per step with the amount consumed; query
    :meth:`rate` for the mean rate over the trailing window.  Used by
    antagonist drivers to report achieved throughput and by tests to
    assert steady-state behaviour.
    """

    def __init__(self, window_s: float = 15.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s!r}")
        self.window_s = float(window_s)
        self._samples: Deque[Tuple[float, float]] = deque()  # (dt, amount)
        self._span = 0.0
        self.total = 0.0

    def record(self, amount: float, dt: float) -> None:
        """Log one step's consumed ``amount`` over ``dt`` seconds."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        self._samples.append((dt, amount))
        self._span += dt
        self.total += amount
        while self._span - self._samples[0][0] >= self.window_s:
            old_dt, _ = self._samples.popleft()
            self._span -= old_dt

    def rate(self) -> float:
        """Mean consumption rate (amount/second) over the window."""
        if self._span <= 0:
            return 0.0
        return sum(a for _, a in self._samples) / self._span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RateTracker(rate={self.rate():.2f}, total={self.total:.2f})"


class TimedDriver(WorkloadDriver):
    """Base for drivers that run for a fixed duration (or forever),
    optionally in on/off episodes.

    Subclasses call :meth:`_account_time` from :meth:`consume`; once the
    accumulated runtime reaches ``duration_s`` the driver reports
    ``finished`` and stops demanding resources.

    ``on_s``/``off_s`` give the driver a duty cycle: it alternates between
    ``on_s`` seconds of activity and ``off_s`` seconds of idleness
    (benchmark iterations, think time, batch windows).  Subclasses should
    gate their demand on :attr:`active` — episodic antagonists are what
    make online antagonist identification non-trivial and are used by the
    Fig. 5/6 scenarios.
    """

    def __init__(
        self,
        duration_s: Optional[float] = None,
        *,
        on_s: Optional[float] = None,
        off_s: float = 0.0,
    ) -> None:
        if duration_s is not None and duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s!r}")
        if on_s is not None and on_s <= 0:
            raise ValueError(f"on_s must be positive, got {on_s!r}")
        if off_s < 0:
            raise ValueError(f"off_s must be non-negative, got {off_s!r}")
        self.duration_s = duration_s
        self.on_s = on_s
        self.off_s = off_s
        self.elapsed_s = 0.0

    @property
    def finished(self) -> bool:
        """Whether the fixed duration (if any) has elapsed."""
        return self.duration_s is not None and self.elapsed_s >= self.duration_s

    @property
    def active(self) -> bool:
        """Whether the current instant falls in an on-episode."""
        if self.finished:
            return False
        if self.on_s is None or self.off_s == 0.0:
            return True
        return (self.elapsed_s % (self.on_s + self.off_s)) < self.on_s

    def _account_time(self, dt: float) -> None:
        self.elapsed_s += dt

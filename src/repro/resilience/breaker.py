"""Per-host circuit breaker over the libvirt facade.

The fault layer (:mod:`repro.faults`) makes libvirt calls *fail*; the
node manager already retries individual actuations.  What retries cannot
express is "this host's control channel is broken right now — stop
hammering it and stop trusting what it says".  The
:class:`CircuitBreaker` adds that judgement as a classic three-state
machine:

``CLOSED``
    Calls flow through.  Failures within a sliding window are counted;
    reaching ``failure_threshold`` trips the breaker.
``OPEN``
    Calls are refused locally (:class:`BreakerOpen`) without touching
    libvirt.  After a seeded-jitter cooldown the breaker admits probes.
``HALF_OPEN``
    A bounded number of real calls are let through as probes.  Any
    probe failure re-opens (with exponentially longer cooldown);
    ``close_after`` consecutive probe successes close the breaker and
    reset the backoff streak.

Failures are counted within ``window_s`` rather than consecutively on
purpose: a host whose *sampling* calls succeed but whose *actuation*
calls always fail would never accumulate consecutive failures, yet its
control channel is exactly as broken as the paper's fallback scenario
assumes.

:class:`GuardedConnection` / :class:`GuardedDomain` wrap the (possibly
fault-injected) facade so every libvirt call reports into one breaker
per host.  They wrap *outside* the fault injector: the injector models
the world misbehaving, the breaker is PerfCloud's defensive reaction
to it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from repro.virt.libvirt_api import LibvirtError, per_domain_stats

__all__ = [
    "BreakerOpen",
    "BreakerPolicy",
    "CircuitBreaker",
    "GuardedConnection",
    "GuardedDomain",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BreakerOpen(LibvirtError):
    """Raised locally instead of performing a call while the breaker is open.

    Subclasses :class:`LibvirtError` deliberately: to every existing
    guard in the monitor and node manager, a refused call looks exactly
    like a failing facade — already retried, already survived — so the
    breaker can be layered under them without new except-clauses.
    """

    def __init__(self, host: str, retry_at: float) -> None:
        super().__init__(
            f"circuit breaker for host {host!r} is open (probe at "
            f"t={retry_at:.1f}s)"
        )
        self.host = host
        self.retry_at = retry_at


@dataclass(frozen=True)
class BreakerPolicy:
    """Breaker thresholds; defaults suit 1 s control intervals."""

    #: Failures within ``window_s`` that trip CLOSED → OPEN.
    failure_threshold: int = 5
    #: Sliding window for the failure count.
    window_s: float = 30.0
    #: Base OPEN cooldown before probing; doubles per consecutive reopen.
    open_cooldown_s: float = 10.0
    #: Cooldown ceiling.
    max_cooldown_s: float = 120.0
    #: Consecutive HALF_OPEN probe successes that close the breaker.
    close_after: int = 3
    #: Concurrent probes admitted while HALF_OPEN (per state entry).
    probe_budget: int = 2
    #: Seed for cooldown jitter (±20%), so many hosts tripping on the
    #: same fault don't all probe in lockstep.
    seed: int = 0


class CircuitBreaker:
    """Three-state breaker driven by an external monotonic clock.

    The simulator owns time, so every method takes ``now`` explicitly —
    nothing here reads a wall clock, which keeps breaker behavior
    deterministic and replayable under a fixed seed.
    """

    def __init__(self, host: str, policy: Optional[BreakerPolicy] = None) -> None:
        self.host = host
        self.policy = policy or BreakerPolicy()
        self.state = CLOSED
        self._failures: Deque[float] = deque()
        self._rng = random.Random((self.policy.seed, host).__repr__())
        self._probe_at = 0.0       # earliest probe admission while OPEN
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._reopen_streak = 0    # consecutive OPEN entries without a close
        # Counters (monotone; ladder logic diffs them).
        self.opens = 0
        self.closes = 0
        self.refused = 0
        self.probe_failures = 0

    # -- queries ---------------------------------------------------------

    def allows(self, now: float) -> bool:
        """Whether a call may proceed right now (advances OPEN→HALF_OPEN)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now >= self._probe_at:
                self._enter_half_open()
            else:
                return False
        # HALF_OPEN: admit up to the probe budget.
        return self._probes_in_flight < self.policy.probe_budget

    def check(self, now: float) -> None:
        """Raise :class:`BreakerOpen` unless a call may proceed."""
        if not self.allows(now):
            self.refused += 1
            raise BreakerOpen(self.host, self._probe_at)

    # -- transitions -----------------------------------------------------

    def _enter_half_open(self) -> None:
        self.state = HALF_OPEN
        self._probes_in_flight = 0
        self._probe_successes = 0

    def _open(self, now: float) -> None:
        self.state = OPEN
        self.opens += 1
        self._reopen_streak += 1
        cooldown = min(
            self.policy.max_cooldown_s,
            self.policy.open_cooldown_s * (2 ** (self._reopen_streak - 1)),
        )
        self._probe_at = now + cooldown * (0.8 + 0.4 * self._rng.random())
        self._failures.clear()
        self._probes_in_flight = 0
        self._probe_successes = 0

    def record_start(self, now: float) -> None:
        """Note that an admitted call is beginning (probe accounting)."""
        if self.state == HALF_OPEN:
            self._probes_in_flight += 1

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.policy.close_after:
                self.state = CLOSED
                self.closes += 1
                self._reopen_streak = 0
                self._failures.clear()

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self.probe_failures += 1
            self._open(now)
            return
        if self.state == OPEN:
            return
        self._failures.append(now)
        horizon = now - self.policy.window_s
        while self._failures and self._failures[0] < horizon:
            self._failures.popleft()
        if len(self._failures) >= self.policy.failure_threshold:
            self._open(now)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "state": self.state,
            "opens": self.opens,
            "closes": self.closes,
            "refused": self.refused,
            "probe_failures": self.probe_failures,
        }


# ----------------------------------------------------------------------
# Facade guards


def _guarded_call(breaker: CircuitBreaker, clock: Callable[[], float],
                  fn: Callable[..., Any], *args, **kwargs) -> Any:
    now = clock()
    breaker.check(now)
    breaker.record_start(now)
    try:
        value = fn(*args, **kwargs)
    except BreakerOpen:
        raise
    except Exception:
        breaker.record_failure(clock())
        raise
    breaker.record_success(clock())
    return value


class GuardedDomain:
    """Domain proxy reporting every facade call into the host breaker."""

    _PASSTHROUGH = frozenset({"name", "uuid"})

    def __init__(self, inner: Any, breaker: CircuitBreaker,
                 clock: Callable[[], float]) -> None:
        self._inner = inner
        self._breaker = breaker
        self._clock = clock

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._inner, attr)
        if attr in self._PASSTHROUGH or not callable(value):
            return value

        def call(*args, **kwargs):
            return _guarded_call(
                self._breaker, self._clock, value, *args, **kwargs
            )

        call.__name__ = attr
        return call

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuardedDomain({self._inner!r})"


class GuardedConnection:
    """Connection proxy: breaker-checked calls, breaker-guarded domains."""

    def __init__(self, inner: Any, breaker: CircuitBreaker,
                 clock: Callable[[], float]) -> None:
        self._inner = inner
        self._breaker = breaker
        self._clock = clock

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    def listAllDomains(self, *args, **kwargs):
        domains = _guarded_call(
            self._breaker, self._clock,
            self._inner.listAllDomains, *args, **kwargs,
        )
        return [
            GuardedDomain(d, self._breaker, self._clock) for d in domains
        ]

    def getAllDomainStats(self):
        # Per-domain reads, so the breaker checks and records each one.
        return per_domain_stats(self.listAllDomains())

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._inner, attr)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            return _guarded_call(
                self._breaker, self._clock, value, *args, **kwargs
            )

        call.__name__ = attr
        return call

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuardedConnection({self._inner!r})"

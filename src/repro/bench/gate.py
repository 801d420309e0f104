"""Baseline comparison and the performance-regression tolerance gate.

Every metric is classified by :func:`metric_kind`:

``ratio``
    Optimized-vs-reference speedups (``*speedup_vs_naive``,
    ``*speedup_vs_realign``) measured in one process on one machine.
    Machine-independent, so they are **always gated**: if a speedup decays
    past the tolerance, an optimization regressed no matter whose laptop
    or CI runner noticed.
``throughput`` / ``latency``
    Absolute numbers (ops/s, wall seconds, µs per call).  Comparable only
    on the machine that produced the baseline — gated when ``strict``
    (e.g. ``make bench`` locally), reported otherwise.

A metric regresses when it is worse than baseline by more than
``tolerance`` (relative).  Improvements never fail the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Comparison", "GateResult", "metric_kind", "compare"]

#: Default relative tolerance before a worse-than-baseline metric fails.
DEFAULT_TOLERANCE = 0.30


def metric_kind(name: str) -> str:
    """``ratio`` | ``throughput`` | ``latency`` for a metric name."""
    if "speedup_vs_" in name.rsplit(".", 1)[-1]:
        return "ratio"
    if "per_s" in name.rsplit(".", 1)[-1]:
        return "throughput"
    return "latency"  # wall_s, us_per_*, events counts


def _higher_is_better(kind: str) -> bool:
    return kind in ("ratio", "throughput")


@dataclass
class Comparison:
    """One metric's baseline-vs-current verdict."""

    metric: str
    kind: str
    baseline: float
    current: float
    #: current/baseline for higher-is-better metrics, baseline/current
    #: otherwise — > 1 always means "got better".
    improvement: float
    gated: bool
    regressed: bool


@dataclass
class GateResult:
    """Outcome of comparing a bench result against a baseline."""

    comparisons: List[Comparison] = field(default_factory=list)
    #: Metrics present on only one side (ungated, reported for visibility).
    missing_in_current: List[str] = field(default_factory=list)
    missing_in_baseline: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[Comparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.failures


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    strict: bool = False,
    only: Optional[List[str]] = None,
) -> GateResult:
    """Gate ``current`` metrics against ``baseline``.

    Parameters
    ----------
    tolerance:
        Allowed relative degradation before a gated metric fails.
    strict:
        Also gate machine-dependent absolute metrics (same-machine runs).
    only:
        Restrict gating to metric names with one of these prefixes
        (comparison rows are still produced for everything).
    """
    result = GateResult()
    for name in sorted(set(current) | set(baseline)):
        if name not in current:
            result.missing_in_current.append(name)
            continue
        if name not in baseline:
            result.missing_in_baseline.append(name)
            continue
        kind = metric_kind(name)
        base, cur = float(baseline[name]), float(current[name])
        if _higher_is_better(kind):
            improvement = cur / base if base else float("inf")
        else:
            improvement = base / cur if cur else float("inf")
        gated = kind == "ratio" or strict
        if only is not None:
            gated = gated and any(name.startswith(p) for p in only)
        regressed = gated and improvement < 1.0 - tolerance
        result.comparisons.append(Comparison(
            metric=name, kind=kind, baseline=base, current=cur,
            improvement=improvement, gated=gated, regressed=regressed,
        ))
    return result

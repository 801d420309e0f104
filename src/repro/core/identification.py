"""Antagonist identification via online cross-correlation (§III-B).

For I/O contention, PerfCloud correlates the victim application's
iowait-ratio-deviation time series against each low-priority VM's I/O
throughput series; for processor contention, the CPI-deviation series
against each low-priority VM's LLC miss-rate series.  A suspect whose
Pearson coefficient reaches the threshold (0.8) is an antagonist.

Two fidelity details from the paper:

* **missing-as-zero** — instants where a suspect's cgroup counted no
  events contribute 0 rather than being omitted, so sparse suspects
  cannot look highly-correlated off three lucky samples (Fig. 6);
* **small windows work** — identification is reliable from as few as 3
  samples (Fig. 5c), so mitigation can start within ~3 intervals.

Identified antagonists carry a TTL: they stay throttle-eligible while
the controller works even if the (now throttled) suspect's own signal
flattens out.

Incremental scoring
-------------------
Under the paper's missing-as-zero policy the per-interval update is
O(1) per (victim, suspect) pair: the identifier caches each suspect's
aligned value ring against the victim's tail grid, and when the grid
advances by one instant (the steady state: one new deviation sample per
control interval) it shifts the ring, looks up the single new instant
and re-runs the *same* Pearson kernel — producing bit-identical scores
to :func:`~repro.metrics.correlation.aligned_pearson_many` because the
input vectors are elementwise identical.

How the victim window moved is read off the victim series' own
``appended``/``dropped`` counters, not by comparing window copies.  A
``TimeSeries`` (every victim is a detector signal) only appends at its
tail and evicts at its head, so against the counters and window length
``o`` recorded at the last call, a window of length ``n`` is

* the *same* window when nothing was appended or dropped;
* *stepped* (still filling) after exactly one append, no drop and
  ``n == o + 1``;
* *slid* by one after exactly one append and ``n == o == window``;

and anything else rebuilds.  The cached suspect ring is reused only
when it provably still matches what a fresh alignment would produce:

* the suspect series object is the same one (``ref is``) and has evicted
  nothing (``dropped`` unchanged) — eviction could change which sample
  is nearest an old instant;
* either no samples were appended, or every possible new sample lies
  strictly beyond the newest *cached* instant plus the lookup tolerance
  (appends are monotone, so ``last_time`` bounds them from below) — a
  new sample can only change the result at an old instant by landing
  within the lookup tolerance of it;
* the victim grid is spaced at least ``_MIN_GRID_SPACING`` apart — on
  denser (sub-10 µs) grids the identifier falls back to the full
  realignment, which is always correct.

Anything else — a reset victim series, a pruned suspect, an arbitrary
grid jump — falls back to the full per-suspect realignment for exactly
the affected pairs.

Flat victims
~~~~~~~~~~~~
The victim-side deviates are computed first.  When their sum of squares
is below the Pearson kernel's degenerate-variance guard, every suspect
scores 0.0 whatever its values, so the identifier returns those zeros
without looking up, aligning or caching any suspect series.  This is the
common case on quiet hosts: an app with a single high-priority VM, or
with idle members, has a constant deviation signal.  The victim's cached
state is dropped, so its next non-flat interval takes the full
realignment.  The scores equal every other path's bit for bit, because
each of them computes the same sum of squares from the same window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Set

import numpy as np

from repro.core.config import PerfCloudConfig
from repro.metrics.correlation import (
    _EPS,
    MissingPolicy,
    aligned_pearson_many,
    pearson_deviates,
    victim_deviates,
)
from repro.metrics.timeseries import TimeSeries

__all__ = ["IdentificationResult", "AntagonistIdentifier"]

#: Grids spaced closer than this (seconds) disable the incremental path:
#: the slide/step safety argument needs instants further apart than the
#: lookup tolerance.  Control intervals are seconds apart; only synthetic
#: (test) grids ever trip this.
_MIN_GRID_SPACING = 1e-5

#: A suspect whose newest cached sample lies this far past the newest
#: cached grid instant cannot receive a later append that lands within
#: the lookup tolerance (1e-6) of any cached instant, even with the
#: 1e-9 monotonicity slack of ``TimeSeries.append``.
_SAFE_GAP = 2e-6


@dataclass
class IdentificationResult:
    """Correlation scores and the antagonist verdicts for one resource."""

    resource: str  # "io" | "cpu"
    correlations: Dict[str, float]
    antagonists: Set[str]


class _SuspectRec:
    """Cached alignment of one suspect against one victim grid."""

    __slots__ = ("ref", "s_vals", "score", "appended", "dropped", "last_time")

    def __init__(self, ref, s_vals: np.ndarray, score: float) -> None:
        self.ref = ref
        self.s_vals = s_vals
        self.score = score
        self.appended = ref.appended
        self.dropped = ref.dropped
        self.last_time = ref.last_time

    def refresh(self) -> None:
        self.appended = self.ref.appended
        self.dropped = self.ref.dropped
        self.last_time = self.ref.last_time


class _VictimState:
    """Per (resource, victim-series) incremental-scoring state.

    Records the victim's ``appended``/``dropped`` counters and window
    length at the last scoring call — enough to tell how the window
    moved since, without keeping a copy of it.
    """

    __slots__ = ("victim", "appended", "dropped", "size", "sus")

    def __init__(self, victim) -> None:
        self.victim = victim
        self.appended = -1
        self.dropped = -1
        self.size = 0
        self.sus: Dict[str, _SuspectRec] = {}


class AntagonistIdentifier:
    """Correlates victim deviation signals with suspect usage series."""

    def __init__(
        self,
        config: PerfCloudConfig,
        missing_policy: MissingPolicy = MissingPolicy.ZERO,
    ) -> None:
        self.config = config
        self.missing_policy = missing_policy
        #: Last time each (resource, vm) pair crossed the threshold.
        self._last_hit: Dict[tuple, float] = {}
        #: Incremental state per (resource, id(victim series)).  The state
        #: holds a strong reference to the victim, so the id stays valid
        #: for as long as the entry exists.
        self._inc: Dict[tuple, _VictimState] = {}
        #: O(1) ring updates taken (shift + single-instant lookup).
        self.fast_updates = 0
        #: Per-suspect full realignments (cache miss or unsafe reuse).
        self.full_recomputes = 0
        #: Whole calls routed to ``aligned_pearson_many`` (OMIT policy or
        #: a grid denser than the incremental path supports).
        self.fallbacks = 0
        #: Calls answered without touching a suspect: the victim window
        #: was flat, so every score is 0.0.
        self.flat_skips = 0

    def identify(
        self,
        resource: str,
        victim_signal: TimeSeries,
        suspects: Mapping[str, TimeSeries],
        now: float,
    ) -> IdentificationResult:
        """Score every suspect and return those at/above the threshold.

        ``victim_signal`` is the application's deviation series (iowait
        std for ``resource="io"``, CPI std for ``"cpu"``); ``suspects``
        maps low-priority VM names to their usage series (I/O throughput
        or LLC miss rate respectively).
        """
        if resource not in ("io", "cpu"):
            raise ValueError(f"resource must be 'io' or 'cpu', got {resource!r}")
        antagonists: Set[str] = set()
        if len(victim_signal) < self.config.corr_min_samples:
            # Too little victim history: no scores, and deliberately no TTL
            # refresh either — identification has not run this interval.
            return IdentificationResult(
                resource=resource,
                correlations={vm: 0.0 for vm in suspects},
                antagonists=antagonists,
            )
        correlations = self._scores(resource, victim_signal, suspects)
        return IdentificationResult(
            resource=resource,
            correlations=correlations,
            antagonists=self.judge(resource, correlations, now),
        )

    def judge(
        self, resource: str, correlations: Mapping[str, float], now: float
    ) -> Set[str]:
        """Threshold + TTL pass over already-computed correlations.

        The state-mutating tail of :meth:`identify`.  Antagonists are
        always a subset of ``correlations`` — a VM outside the current
        suspect set is never resurrected by its TTL alone.
        """
        antagonists: Set[str] = set()
        for vm, r in correlations.items():
            key = (resource, vm)
            if r >= self.config.corr_threshold:
                self._last_hit[key] = now
            # TTL: keep throttling recently-identified antagonists even if
            # their (throttled) signal no longer co-varies.
            last = self._last_hit.get(key)
            if last is not None and now - last <= self.config.antagonist_ttl_s:
                antagonists.add(vm)
        return antagonists

    def remembered(self) -> Set[str]:
        """VMs holding a TTL entry for either resource."""
        return {vm for _, vm in self._last_hit}

    def forget(self, vm: str) -> None:
        """Drop TTL and cached-alignment state for a departed VM."""
        for key in [k for k in self._last_hit if k[1] == vm]:
            del self._last_hit[key]
        for st in self._inc.values():
            st.sus.pop(vm, None)

    # ------------------------------------------------------------- internals
    def _scores(
        self,
        resource: str,
        victim: TimeSeries,
        suspects: Mapping[str, TimeSeries],
    ) -> Dict[str, float]:
        """Per-suspect Pearson scores ≡ ``aligned_pearson_many``."""
        window = self.config.corr_window
        if self.missing_policy is not MissingPolicy.ZERO or not suspects:
            return aligned_pearson_many(
                victim, suspects, window=window, policy=self.missing_policy
            )
        times, v_vals = victim.tail(window)
        if times.size < 2:
            return {vm: 0.0 for vm in suspects}
        key = (resource, id(victim))
        vd, vv = victim_deviates(v_vals)
        if vv < _EPS:
            # Flat victim: every path below would score 0.0 per suspect.
            self._inc.pop(key, None)
            self.flat_skips += 1
            return {vm: 0.0 for vm in suspects}
        st = self._inc.get(key)
        mode = "rebuild"
        appended, dropped = victim.appended, victim.dropped
        if st is not None and st.victim is victim:
            # How the window moved follows from the victim's counters: a
            # series only appends at its tail and evicts at its head.
            n, o = times.size, st.size
            grew = appended - st.appended
            if grew == 0 and dropped == st.dropped:
                mode = "same"
            elif grew == 1 and n == o + 1 and dropped == st.dropped:
                mode = "step"  # window still filling: one instant appended
            elif grew == 1 and n == o == window:
                mode = "slide"  # steady state: window advanced by one
        # Grid-density guard for the slide safety argument.  A stored grid
        # already passed it, so modes extending one only check the single
        # new gap; a fresh grid is checked in full.  Too-dense grids always
        # realign (still exact).
        if mode == "same":
            dense = False
        elif mode != "rebuild":
            dense = float(times[-1] - times[-2]) < _MIN_GRID_SPACING
        else:
            dense = float(np.min(np.diff(times))) < _MIN_GRID_SPACING
        if dense:
            self._inc.pop(key, None)
            self.fallbacks += 1
            return aligned_pearson_many(
                victim, suspects, window=window, policy=self.missing_policy
            )
        if mode == "rebuild":
            st = _VictimState(victim)

        t_last = float(times[-1])
        # The newest grid instant whose cached suspect value is reused.
        anchor = t_last if mode == "same" else float(times[-2])
        scores: Dict[str, float] = {}
        new_sus: Dict[str, _SuspectRec] = {}
        for vm, series in suspects.items():
            rec = st.sus.get(vm) if mode != "rebuild" else None
            safe = (
                rec is not None
                and rec.ref is series
                and series.dropped == rec.dropped
                and (
                    series.appended == rec.appended
                    or (rec.last_time is not None
                        and (rec.last_time == anchor
                             or rec.last_time > anchor + _SAFE_GAP))
                )
            )
            if safe and mode == "same":
                score = rec.score
                rec.refresh()
                self.fast_updates += 1
            elif safe:  # step or slide: shift the ring, look up one instant
                if mode == "step":
                    s_vals = np.empty(times.size)
                    s_vals[:-1] = rec.s_vals
                else:
                    # Steady state: shift the ring in place (the buffer is
                    # owned by this record, never aliased elsewhere).
                    s_vals = rec.s_vals
                    s_vals[:-1] = s_vals[1:]
                nv = series.value_at(t_last)
                s_vals[-1] = nv if nv is not None else 0.0
                score = pearson_deviates(vd, vv, s_vals)
                rec.s_vals = s_vals
                rec.score = score
                rec.refresh()
                self.fast_updates += 1
            else:
                s_vals, _ = series.lookup(times)
                score = pearson_deviates(vd, vv, s_vals)
                rec = _SuspectRec(series, s_vals, score)
                self.full_recomputes += 1
            new_sus[vm] = rec
            scores[vm] = score
        st.appended, st.dropped, st.size = appended, dropped, times.size
        st.sus = new_sus
        self._inc[key] = st
        return scores

"""Property tests for the columnar metric plane and incremental identifier.

Exact-equivalence oracles, each driven over randomized inputs:

* the incremental identifier must produce *identical* (``==``, not
  approximate) scores to :func:`aligned_pearson_many` at every interval,
  across missing suspect samples, <`corr_min_samples` abstention,
  capacity eviction, pruning, series resets, too-dense grids and flat
  victim windows;
* the detector's masked-column read path (``plane=``) must produce
  identical :class:`DetectionResult`s and deviation histories to the
  per-VM dict path;
* a :class:`PlaneSeries` must answer the whole ``TimeSeries`` read API
  exactly like a ``TimeSeries`` fed the same (time, value) stream,
  including under column eviction, pruning and VM removal;
* ``group_std`` must return bitwise what its numpy finite-mask form
  returned, and what ``np.std`` returns on its finite members, over
  groups mixing ``None``, NaN, ±inf and finite members.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PerfCloudConfig
from repro.core.detector import InterferenceDetector
from repro.core.identification import AntagonistIdentifier
from repro.core.monitor import PLANE_METRICS, VmSample
from repro.metrics.correlation import MissingPolicy, aligned_pearson_many
from repro.metrics.plane import MetricPlane
from repro.metrics.stats import group_std
from repro.metrics.timeseries import TimeSeries

_N_SUSPECTS = 3

_values = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

#: Most intervals are plain ticks; the rest move the victim window in
#: every way its counters must tell apart (a fresh victim, a copy in a new
#: object, pruning before or inside the window, two appends between
#: calls), replace or prune a suspect, or make the grid denser than
#: ``_MIN_GRID_SPACING`` so the whole call must fall back.  Small
#: capacities add eviction; windows longer than the history add the
#: filling phase.
_events = st.sampled_from(
    ("tick",) * 5
    + ("reset_victim", "copy_victim", "prune_victim_out", "prune_victim_in",
       "double", "replace_suspect", "prune_suspect", "dense")
)

_id_steps = st.lists(
    st.tuples(
        _events,
        st.booleans(),  # victim sampled this interval?
        _values,  # victim value
        st.lists(  # per-suspect value; None = missing sample
            st.one_of(st.none(), _values),
            min_size=_N_SUSPECTS,
            max_size=_N_SUSPECTS,
        ),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(
    steps=_id_steps,
    window=st.integers(min_value=2, max_value=8),
    min_samples=st.integers(min_value=2, max_value=4),
    capacity=st.sampled_from([4, 8, 4096]),
)
def test_incremental_identifier_matches_batch_oracle(
    steps, window, min_samples, capacity
):
    """identify() scores == aligned_pearson_many() at every interval."""
    config = PerfCloudConfig(corr_window=window, corr_min_samples=min_samples)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(capacity=capacity, name="victim")
    suspects = {
        f"s{i}": TimeSeries(capacity=capacity, name=f"s{i}")
        for i in range(_N_SUSPECTS)
    }
    t = 0.0
    for event, victim_sampled, v_val, s_vals in steps:
        t += 0.25
        if event == "reset_victim":
            victim = TimeSeries(capacity=capacity, name="victim")
        elif event == "copy_victim":
            copy = TimeSeries(capacity=capacity, name="victim")
            copy.extend(victim)
            victim = copy
        elif event == "prune_victim_out":
            # Drop only samples older than the current window.
            times = victim.times()
            if times.size > window:
                victim.prune_before(float(times[-window]))
        elif event == "prune_victim_in":
            victim.prune_before(t - 0.5)  # cuts into any window of >= 2
        elif event == "double":
            victim.append(t - 0.1, v_val)  # an extra instant between calls
        elif event == "replace_suspect":
            suspects["s0"] = TimeSeries(capacity=capacity, name="s0")
        elif event == "prune_suspect":
            suspects["s1"].prune_before(t - 1.0)
        if victim_sampled:
            victim.append(t, v_val)
        if event == "dense":
            # Two victim instants closer than the incremental path's
            # minimum grid spacing: the whole call must fall back.
            victim.append(t + 1e-7, v_val)
        for series, sv in zip(suspects.values(), s_vals):
            if sv is not None:
                series.append(t, sv)
        got = identifier.identify("io", victim, suspects, now=t).correlations
        if len(victim) < min_samples:
            # <min_samples abstention: no scores at all this interval.
            assert got == {vm: 0.0 for vm in suspects}
            continue
        want = aligned_pearson_many(
            victim, suspects, window=window, policy=MissingPolicy.ZERO
        )
        assert got == want


def test_incremental_identifier_uses_fast_path_in_steady_state():
    """The oracle equality above must hold *while* the O(1) path runs —
    a regression that silently routed everything through the full
    realignment would pass the equivalence test but not this one."""
    config = PerfCloudConfig(corr_window=4, corr_min_samples=3)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(name="victim")
    suspects = {f"s{i}": TimeSeries(name=f"s{i}") for i in range(3)}
    rng = np.random.default_rng(42)
    for k in range(30):
        t = 0.25 * (k + 1)
        victim.append(t, float(rng.random()))
        for series in suspects.values():
            series.append(t, float(rng.random()))
        got = identifier.identify("io", victim, suspects, now=t).correlations
        if len(victim) >= config.corr_min_samples:
            want = aligned_pearson_many(
                victim, suspects, window=4, policy=MissingPolicy.ZERO
            )
            assert got == want
    assert identifier.fallbacks == 0
    assert identifier.fast_updates > identifier.full_recomputes > 0


def _silent_suspect_world(window: int, seed: int):
    """A victim with a full window, one live suspect and one that has
    gone silent, so its cached ring is reusable whatever the victim did."""
    config = PerfCloudConfig(corr_window=window, corr_min_samples=2)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(name="victim")
    suspects = {"live": TimeSeries(name="live"), "silent": TimeSeries(name="silent")}
    rng = np.random.default_rng(seed)
    t = 0.0
    for k in range(2 * window):
        t = 5.0 * (k + 1)
        victim.append(t, float(rng.random()))
        suspects["live"].append(t, float(rng.random()))
        if k < window:
            suspects["silent"].append(t, float(rng.random()))
        identifier.identify("io", victim, suspects, now=t)
    return identifier, victim, suspects, rng, t


@pytest.mark.parametrize("move", [
    "two_appends", "prune_inside_no_append", "prune_outside_no_append",
    "prune_outside_then_append", "filling_prune_and_two_appends", "no_change",
])
@pytest.mark.parametrize("window", [3, 6])
def test_each_victim_window_move_matches_oracle_with_a_silent_suspect(move, window):
    """A silent suspect's cached ring passes every reuse check, so only
    a correct reading of how the victim window moved keeps its score
    exact."""
    identifier, victim, suspects, rng, t = _silent_suspect_world(window, 5)
    times = victim.times()
    if move == "two_appends":
        for dt in (1.0, 5.0):
            victim.append(t + dt, float(rng.random()))
        t += 5.0
        suspects["live"].append(t, float(rng.random()))
    elif move == "prune_inside_no_append":
        victim.prune_before(float(times[-2]))
    elif move == "prune_outside_no_append":
        victim.prune_before(float(times[-window]))
    elif move == "filling_prune_and_two_appends":
        victim.prune_before(float(times[-2]))  # a filling window of 2
        identifier.identify("io", victim, suspects, now=t)
        victim.prune_before(float(times[-1]))
        for dt in (1.0, 5.0):
            victim.append(t + dt, float(rng.random()))
        t += 5.0
    elif move == "prune_outside_then_append":
        victim.prune_before(float(times[-window]))
        t += 5.0
        victim.append(t, float(rng.random()))
        suspects["live"].append(t, float(rng.random()))
    got = identifier.identify("io", victim, suspects, now=t).correlations
    assert got == aligned_pearson_many(
        victim, suspects, window=window, policy=MissingPolicy.ZERO
    )


def test_victim_capacity_eviction_keeps_the_fast_path():
    """A victim ring at capacity drops one sample per append; the window
    still slides by one, so scoring stays on the O(1) path."""
    config = PerfCloudConfig(corr_window=4, corr_min_samples=3)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(capacity=4, name="victim")
    suspects = {f"s{i}": TimeSeries(name=f"s{i}") for i in range(3)}
    rng = np.random.default_rng(3)
    for k in range(20):
        t = 5.0 * (k + 1)
        victim.append(t, float(rng.random()))
        for series in suspects.values():
            series.append(t, float(rng.random()))
        got = identifier.identify("io", victim, suspects, now=t).correlations
        if len(victim) >= config.corr_min_samples:
            assert got == aligned_pearson_many(
                victim, suspects, window=4, policy=MissingPolicy.ZERO
            )
    assert victim.dropped == 16
    assert identifier.full_recomputes == len(suspects)
    assert identifier.fallbacks == 0


#: Victim levels for explicit flat runs.  A window of zeros or of a small
#: constant has a sum of squares of exactly 0.0.  At window 7 the inexact
#: large levels (1e10 / 3, 7e9 + 0.3) leave rounding residue above the
#: Pearson guard, so those windows must fall through to real scoring.
_FLAT_LEVELS = (0.0, 2.5, -1.0, 1e10, 1e10 / 3, 7e9 + 0.3)

_flat_runs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(_FLAT_LEVELS)),  # None: varying
        st.integers(min_value=1, max_value=10),  # run length in intervals
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    runs=_flat_runs,
    window=st.sampled_from([2, 3, 4, 7, 8]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_identifier_matches_oracle_across_flat_victim_runs(runs, window, seed):
    """identify() == aligned_pearson_many() through flat victim windows
    (zero, constant, large constant) interleaved with varying ones."""
    config = PerfCloudConfig(corr_window=window, corr_min_samples=2)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(name="victim")
    suspects = {f"s{i}": TimeSeries(name=f"s{i}") for i in range(_N_SUSPECTS)}
    rng = np.random.default_rng(seed)
    k = 0
    for level, length in runs:
        for _ in range(length):
            k += 1
            t = 5.0 * k
            victim.append(t, float(rng.random()) if level is None else level)
            for series in suspects.values():
                if rng.random() < 0.8:  # the rest stay missing (scored as 0)
                    series.append(t, float(rng.random()))
            got = identifier.identify("io", victim, suspects, now=t).correlations
            want = aligned_pearson_many(
                victim, suspects, window=window, policy=MissingPolicy.ZERO
            )
            assert got == want


def test_large_constant_victim_window_falls_through():
    """A constant window whose rounding residue clears the guard is
    scored, not skipped."""
    config = PerfCloudConfig(corr_window=7, corr_min_samples=2)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(name="victim")
    suspects = {"s0": TimeSeries(name="s0")}
    for k in range(7):
        t = 5.0 * (k + 1)
        victim.append(t, 7e9 + 0.3)
        suspects["s0"].append(t, float(k % 3))
    identifier.identify("io", victim, suspects, now=t)
    assert identifier.flat_skips == 0
    assert identifier.full_recomputes == 1


class _Untouchable:
    """A suspect series whose ``lookup``, ``value_at`` and every other
    attribute fail the test when read."""

    def __getattribute__(self, name):
        raise AssertionError(f"flat victim read suspect attribute {name!r}")


def test_flat_victim_touches_no_suspect_and_drops_cached_state():
    config = PerfCloudConfig(corr_window=4, corr_min_samples=3)
    identifier = AntagonistIdentifier(config)
    victim = TimeSeries(name="victim")
    suspects = {f"s{i}": TimeSeries(name=f"s{i}") for i in range(3)}
    rng = np.random.default_rng(7)
    t = 0.0

    def advance(value: float) -> None:
        nonlocal t
        t += 5.0
        victim.append(t, value)
        for series in suspects.values():
            series.append(t, float(rng.random()))

    for _ in range(6):  # varying: cached alignments exist
        advance(float(rng.random()))
        identifier.identify("io", victim, suspects, now=t)
    assert identifier.fast_updates > 0
    for _ in range(config.corr_window):  # the window turns flat
        advance(0.0)
    untouchable = {vm: _Untouchable() for vm in suspects}
    for _ in range(2):
        skips = identifier.flat_skips
        got = identifier.identify("io", victim, untouchable, now=t)
        assert got.correlations == {vm: 0.0 for vm in suspects}
        assert identifier.flat_skips == skips + 1
    assert not identifier._inc  # the victim's cached alignments are gone
    # The first non-flat interval realigns every suspect from scratch.
    advance(1.0)
    recomputes = identifier.full_recomputes
    got = identifier.identify("io", victim, suspects, now=t).correlations
    assert identifier.full_recomputes == recomputes + len(suspects)
    assert got == aligned_pearson_many(
        victim, suspects, window=4, policy=MissingPolicy.ZERO
    )


def _group_std_numpy(values) -> float:
    """``group_std`` as first written: a numpy finite mask, then np.std."""
    arr = np.asarray([v for v in values if v is not None], dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size < 2:
        return 0.0
    return float(np.std(arr))


_group_members = st.tuples(
    st.sampled_from([0, 1, 2, 5, 9]).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-1e12, max_value=1e12), min_size=n, max_size=n
        )
    ),
    st.lists(
        st.sampled_from([None, float("nan"), float("inf"), float("-inf")]),
        max_size=4,
    ),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


@settings(max_examples=200, deadline=None)
@given(members=_group_members)
def test_group_std_matches_numpy_form_bitwise(members):
    got = group_std(iter(members))
    assert struct.pack("<d", got) == struct.pack("<d", _group_std_numpy(members))


def _magnitude_floats(lo: float, hi: float):
    """Floats of either sign with magnitudes in [lo, hi], and ±0.0."""
    mags = st.floats(min_value=lo, max_value=hi)
    return st.one_of(st.sampled_from([0.0, -0.0]), mags, mags.map(lambda x: -x))


_std_groups = st.tuples(
    st.one_of(
        st.integers(min_value=-7, max_value=10).flatmap(  # one decade
            lambda e: st.lists(_magnitude_floats(10.0 ** (e - 1), 10.0 ** e),
                               min_size=2, max_size=20)
        ),
        st.lists(_magnitude_floats(1e-8, 1e10), min_size=2, max_size=20),
    ),
    st.integers(min_value=0, max_value=20),  # repeats of the first members
    st.lists(
        st.sampled_from([None, float("nan"), float("inf"), float("-inf")]),
        max_size=4,
    ),
).map(lambda p: p[0] + (p[0] * 2)[: p[1]] + p[2]).flatmap(st.permutations)


@settings(max_examples=300, deadline=None)
@given(members=_std_groups)
def test_group_std_equals_np_std_bitwise(members):
    """2–40 finite members at magnitudes 1e-8 to 1e10, ±0.0 and repeats
    among them, None/nan/±inf dropped: ``group_std`` is ``np.std``."""
    finite = [v for v in members if v is not None and np.isfinite(v)]
    want = float(np.std(np.asarray(finite))) if len(finite) >= 2 else 0.0
    assert struct.pack("<d", group_std(members)) == struct.pack("<d", want)


_metric_val = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)

#: One VM's interval sample, or None when the monitor saw nothing.
_vm_sample = st.one_of(
    st.none(),
    st.tuples(
        _metric_val,  # iowait_ratio
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),  # cpi
        _metric_val,  # io_bytes_ps
        st.one_of(st.none(), _metric_val),  # llc_miss_rate (missing case)
        _metric_val,  # cpu_usage_cores
    ),
)

_detector_intervals = st.lists(
    st.tuples(
        st.lists(_vm_sample, min_size=4, max_size=4),
        st.booleans(),  # ingested into the plane this interval?
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(intervals=_detector_intervals)
def test_detector_columnar_matches_dict_path(intervals):
    """evaluate(plane=...) == evaluate() — results and signal history.

    The un-ingested intervals leave the plane stale at ``now``, so the
    plane-carrying detector must detect that and take the dict path —
    both branches are exercised within one stream.
    """
    config = PerfCloudConfig()
    det_plane = InterferenceDetector(config)
    det_dict = InterferenceDetector(config)
    plane = MetricPlane(PLANE_METRICS)
    names = [f"vm{i}" for i in range(4)]
    app_members = {
        "appA": names[:3],
        "appB": [names[2], names[3], "ghost"],  # ghost: never sampled
    }
    for k, (per_vm, ingest) in enumerate(intervals):
        now = 5.0 * (k + 1)
        samples = {}
        columns = {}
        for name, fields in zip(names, per_vm):
            if fields is None:
                continue
            iowait, cpi, io_bps, llc, cpu = fields
            samples[name] = VmSample(
                time=now,
                iowait_ratio=iowait,
                cpi=cpi,
                io_bytes_ps=io_bps,
                llc_miss_rate=llc,
                cpu_usage_cores=cpu,
            )
            # Mirror the monitor's write: every sampled VM lands every
            # metric except a missing LLC reading, which leaves a hole.
            col = {
                "iowait_ratio": iowait,
                "cpi": cpi,
                "io_bytes_ps": io_bps,
                "cpu_usage_cores": cpu,
            }
            if llc is not None:
                col["llc_miss_rate"] = llc
            columns[name] = col
        if ingest and columns:
            plane.ingest(now, columns)
        got = det_plane.evaluate(now, samples, app_members, plane=plane)
        want = det_dict.evaluate(now, samples, app_members)
        assert got == want
    for app in app_members:
        for kind in ("io", "cpi"):
            a = det_plane.signal(app, kind)
            b = det_dict.signal(app, kind)
            assert np.array_equal(a.times(), b.times())
            assert np.array_equal(a.values(), b.values())


_plane_steps = st.lists(
    st.tuples(
        st.sampled_from([0.25, 0.5, 5.0]),  # interval length
        st.lists(  # 2 VMs x 2 metrics; None = hole
            st.one_of(st.none(), _values), min_size=4, max_size=4
        ),
        st.booleans(),  # prune_before(t - 1.0) this interval?
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(steps=_plane_steps, capacity=st.sampled_from([1, 2, 3, 7, 64]))
def test_plane_series_reads_match_timeseries(steps, capacity):
    """PlaneSeries answers the TimeSeries read API identically.

    The oracle is a plain TimeSeries per (VM, metric) fed the same
    samples.  Plane capacity bounds the shared column count, so the
    oracle mimics column eviction with an equivalent prune — per-series
    contents must then match exactly, dropped/appended counters
    included.  The plane-wide ``dropped_total`` stays the sum of every
    series' ``dropped_of`` across eviction, pruning and VM removal.
    """
    metrics = ("m0", "m1")
    vms = ("vmA", "vmB")
    plane = MetricPlane(metrics, capacity=capacity)
    oracle = {
        (vm, m): TimeSeries(capacity=4096, name=f"{vm}.{m}")
        for vm in vms
        for m in metrics
    }
    views = {key: plane.series(*key) for key in oracle}
    grid = []  # retained ingest instants, oldest first
    t = 0.0
    for dt, cells, do_prune in steps:
        t += dt
        columns = {}
        it = iter(cells)
        for vm in vms:
            col = {m: v for m in metrics if (v := next(it)) is not None}
            if col:
                columns[vm] = col
        if columns:
            plane.ingest(t, columns)
            grid.append(t)
            for (vm, m), ts in oracle.items():
                v = columns.get(vm, {}).get(m)
                if v is not None:
                    ts.append(t, v)
            if len(grid) > capacity:
                # The plane evicted its oldest column; prune the oracle
                # to the new oldest retained instant.
                cutoff = grid[-capacity]
                grid = grid[-capacity:]
                for ts in oracle.values():
                    ts.prune_before(cutoff)
        if do_prune:
            cutoff = t - 1.0
            plane.prune_before(cutoff)
            grid = [g for g in grid if g >= cutoff - 1e-9]
            for ts in oracle.values():
                ts.prune_before(cutoff)
        for key, ps in views.items():
            ts = oracle[key]
            assert len(ps) == len(ts)
            assert np.array_equal(ps.times(), ts.times())
            assert np.array_equal(ps.values(), ts.values())
            assert ps.last_time == ts.last_time
            assert ps.last_value == ts.last_value
            assert ps.dropped == ts.dropped
            assert ps.appended == ts.appended
            pt, pv = ps.tail(3)
            ot, ov = ts.tail(3)
            assert np.array_equal(pt, ot) and np.array_equal(pv, ov)
            assert ps.value_at(t) == ts.value_at(t)
            assert ps.value_at(t - 0.1) == ts.value_at(t - 0.1)
            wt, wv = ps.window(t - 1.0, t)
            owt, owv = ts.window(t - 1.0, t)
            assert np.array_equal(wt, owt) and np.array_equal(wv, owv)
            if grid:
                q = np.asarray(grid, dtype=float)
                pvals, ppres = ps.lookup(q)
                ovals, opres = ts.lookup(q)
                assert np.array_equal(pvals, ovals)
                assert np.array_equal(ppres, opres)
        assert plane.dropped_total == _dropped_sum(plane, vms, metrics)
    # A removed VM reads as empty; its retained cells count as dropped.
    before = {
        (vm, m): (len(views[(vm, m)]), views[(vm, m)].dropped)
        for vm in vms
        for m in metrics
    }
    plane.remove_vm("vmA")
    for m in metrics:
        ps = views[("vmA", m)]
        n, d = before[("vmA", m)]
        assert len(ps) == 0
        assert ps.dropped == n + d
        assert ps.last_time is None and ps.last_value is None
    assert plane.dropped_total == _dropped_sum(plane, vms, metrics)


def _dropped_sum(plane, vms, metrics) -> int:
    return sum(plane.dropped_of(vm, m) for vm in vms for m in metrics)


_churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 2), _values),
            min_size=1, max_size=24)),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(st.just("prune"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(ops=_churn_ops, capacity=st.sampled_from([3, 4096]))
def test_plane_slot_growth_and_reuse_match_timeseries(ops, capacity):
    """Up to 12 VMs arrive, leave and return: slots double while rows
    hold data and freed slots are reused.  Every series, its counters,
    the newest-row reads and ``dropped_total`` match per-series
    ``TimeSeries`` whose removal moves the retained samples to
    ``dropped``."""
    metrics = ("m0", "m1", "m2")
    vms = [f"v{i}" for i in range(12)]
    plane = MetricPlane(metrics, capacity=capacity)
    oracle = {(vm, m): TimeSeries(capacity=4096) for vm in vms for m in metrics}
    carried = dict.fromkeys(oracle, 0)  # dropped before the latest removal
    grid = []
    t = 0.0
    for kind, arg in ops:
        if kind == "ingest":
            t += 1.0
            columns = {}
            for i, k, v in arg:
                columns.setdefault(vms[i], {})[metrics[k]] = v
            plane.ingest(t, columns)
            grid.append(t)
            for vm, col in columns.items():
                for m, v in col.items():
                    oracle[(vm, m)].append(t, v)
            if len(grid) > capacity:
                grid = grid[-capacity:]
                for ts in oracle.values():
                    ts.prune_before(grid[0])
        elif kind == "remove":
            vm = vms[arg]
            plane.remove_vm(vm)
            for m in metrics:
                old = oracle[(vm, m)]
                carried[(vm, m)] += len(old) + old.dropped
                oracle[(vm, m)] = TimeSeries(capacity=4096)
        else:
            cutoff = t - 2.5
            plane.prune_before(cutoff)
            grid = [g for g in grid if g >= cutoff - 1e-9]
            for ts in oracle.values():
                ts.prune_before(cutoff)
        for (vm, m), ts in oracle.items():
            ps = plane.series(vm, m)
            assert np.array_equal(ps.times(), ts.times())
            assert np.array_equal(ps.values(), ts.values())
            assert ps.dropped == carried[(vm, m)] + ts.dropped
            assert ps.appended == carried[(vm, m)] + ts.appended
        for m in metrics:
            want = {vm: oracle[(vm, m)].last_value for vm in vms
                    if grid and oracle[(vm, m)].last_time == grid[-1]}
            assert plane.latest(m, vms) == want
        assert plane.dropped_total == _dropped_sum(plane, vms, metrics)

"""CI smoke gate for the `repro bench` performance harness.

Not part of the tier-1 suite (``testpaths = ["tests"]``): run explicitly
via ``pytest benchmarks/perf/`` (the CI ``bench-smoke`` job) or through
``make bench``.  Two layers of protection:

* machine-independent floors — the vectorized identifier must beat the
  naive reference by the acceptance margin regardless of host speed;
* the committed baseline gate — ratio metrics from ``baseline.json``
  must not regress beyond the default 30% tolerance (absolute
  throughput/latency numbers are reported but not gated here, since CI
  runners vary wildly — pass ``--strict`` locally for those).
"""

import os

import pytest

from repro.bench.gate import DEFAULT_TOLERANCE, compare, metric_kind
from repro.bench.micro import run_micro
from repro.bench.runner import default_baseline_path, load_result


@pytest.fixture(scope="module")
def micro_metrics():
    return run_micro(repeat=1)


def test_identifier_speedup_floor(micro_metrics):
    # Headline acceptance criterion: the incremental (O(1)-per-pair)
    # identifier must beat the pre-optimization per-suspect realignment
    # by >= 20x at fig-scale dimensions in steady state.
    assert micro_metrics["micro.identifier.speedup_vs_naive"] >= 20.0


def test_identifier_flat_victim_speedup_floor(micro_metrics):
    # A quiet host's flat victim signal scores every suspect 0.0 without
    # reading them: >= 5x over aligning and scoring each of 24 suspects.
    name = "micro.identifier.flat_speedup_vs_realign"
    assert metric_kind(name) == "ratio"
    assert micro_metrics[name] >= 5.0


def test_dataplane_speedup_floors(micro_metrics):
    # Acceptance criteria for the columnar data plane: the vectorized
    # host step must beat the scalar dict-per-tick oracle by >= 1.5x at
    # fig-scale guest counts, with the idle fast path and the fabric
    # kernel holding the same floor.  The cluster-wide table must beat
    # per-host scalar stepping by >= 2x on the 48 x 5 fleet shape, and
    # must not lose on the smallest table the figures step (one 8-guest
    # host, Fig. 11's shape) nor on Fig. 9's shape (one 16-guest host
    # whose disk inputs change every tick).  The ratios are same-process and
    # machine-independent, but a CPU-steal burst can still depress one
    # measurement — re-measure before failing, like the obs gate.
    from repro.bench.micro import bench_dataplane

    floors = {
        "dataplane.speedup_vs_naive": 1.5,
        "dataplane.cluster_speedup_vs_naive": 2.0,
        "dataplane.small_host_speedup_vs_naive": 1.0,
        "dataplane.churn_speedup_vs_naive": 1.0,
        "dataplane.idle_speedup_vs_naive": 1.5,
        "dataplane.fabric_speedup_vs_naive": 1.5,
    }
    metrics = {k: micro_metrics[f"micro.{k}"] for k in floors}
    attempts = 1
    while (any(metrics[k] < floors[k] for k in floors) and attempts < 3):
        metrics = {k: v for k, v in bench_dataplane(repeat=2).items()
                   if k in floors}
        attempts += 1
    for k, floor in floors.items():
        assert metrics[k] >= floor, f"{k}: {metrics[k]:.2f} < {floor}"


def test_plane_speedup_floor(micro_metrics):
    # Columnar ingest (one batched column write + masked-column reads)
    # vs the per-(VM, metric) append store it replaced.
    assert micro_metrics["micro.plane.speedup_vs_naive"] >= 1.5


def test_timeseries_lookup_speedup_floor(micro_metrics):
    assert micro_metrics["micro.timeseries.speedup_vs_naive"] >= 3.0


def test_rolling_stats_speedup_floor(micro_metrics):
    assert micro_metrics["micro.rolling.speedup_vs_naive"] >= 3.0


def test_obs_overhead_under_three_percent(micro_metrics):
    # Acceptance criterion for the observability plane: with the incident
    # ledger and span recorder both on, a full fig9 closed-loop run may
    # cost at most 3% more wall-clock than the telemetry-off run (which
    # bench_obs separately asserts is byte-identical in its outputs).
    # Shared runners see multi-second noise bursts (CPU steal) that can
    # inflate every estimator of one measurement at once, so a reading
    # over the gate is re-measured before failing: a real regression
    # fails every attempt, a burst does not survive three.
    from repro.bench.micro import bench_obs

    ratio = micro_metrics["micro.obs.overhead_ratio"]
    attempts = [ratio]
    while ratio >= 1.03 and len(attempts) < 3:
        ratio = bench_obs()["obs.overhead_ratio"]
        attempts.append(ratio)
    assert ratio < 1.03, f"telemetry overhead over 3% in {attempts}"


def test_micro_metrics_are_positive_finite(micro_metrics):
    for name, value in micro_metrics.items():
        assert value > 0.0, name
        assert value == value and value != float("inf"), name


def test_no_gated_regression_vs_committed_baseline(micro_metrics):
    baseline_path = default_baseline_path()
    if baseline_path is None:
        pytest.skip("no committed baseline (benchmarks/perf/baseline.json)")
    baseline = load_result(baseline_path)
    gate = compare(
        micro_metrics,
        {k: v for k, v in baseline["metrics"].items()
         if k in micro_metrics},
        tolerance=DEFAULT_TOLERANCE,
        strict=False,  # ratio metrics only: CI hosts differ in raw speed
    )
    assert not gate.failures, "regressed: " + ", ".join(
        f"{c.metric} {c.baseline:.3g}->{c.current:.3g}" for c in gate.failures
    )


def test_baseline_when_present_contains_ratio_metrics():
    baseline_path = default_baseline_path()
    if baseline_path is None:
        pytest.skip("no committed baseline (benchmarks/perf/baseline.json)")
    baseline = load_result(baseline_path)
    ratios = [k for k in baseline["metrics"] if metric_kind(k) == "ratio"]
    assert ratios, "committed baseline carries no gateable ratio metrics"
    assert os.path.basename(baseline_path) == "baseline.json"

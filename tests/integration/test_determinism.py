"""Determinism and long-run stability of the full stack.

Bit-reproducibility given a seed is a stated design requirement of the
simulator (policy comparisons rely on "the same random workload"), and
long idle runs must not leak state or drift.
"""

from repro.experiments.harness import TestbedConfig, build_testbed, run_until
from repro.workloads.datagen import sparkbench_synthetic, teragen
from repro.workloads.puma import terasort
from repro.workloads.sparkbench import logistic_regression


def _full_scenario(seed: int):
    testbed = build_testbed(
        TestbedConfig(seed=seed, num_hosts=2, num_workers=8, framework="both",
                      antagonists=(("fio", 0), ("stream", 1)))
    )
    testbed.deploy_perfcloud()
    mr = testbed.jobtracker.submit(terasort(), teragen(320), 5)
    sp = testbed.spark.submit(
        logistic_regression(), sparkbench_synthetic("lr", 320)
    )
    run_until(
        testbed.sim,
        lambda: mr.completion_time is not None and sp.completion_time is not None,
        8000,
    )
    nm = testbed.node_manager()
    return (
        mr.completion_time,
        sp.completion_time,
        tuple(nm.actions),
        round(testbed.antagonist_drivers["fio"].iops.total, 6),
    )


def test_same_seed_bit_identical():
    assert _full_scenario(11) == _full_scenario(11)


def test_different_seed_differs():
    assert _full_scenario(11) != _full_scenario(12)


def test_long_idle_run_is_quiet_and_stable():
    testbed = build_testbed(
        TestbedConfig(seed=5, num_workers=4, framework="mapreduce")
    )
    testbed.deploy_perfcloud()
    testbed.run(3600)  # an idle hour
    nm = testbed.node_manager()
    assert nm.actions == []
    # Detection history exists but never crossed a threshold.
    sig = nm.detector.signal("app", "io")
    assert len(sig) > 700
    assert max(sig.values()) == 0.0
    # Counters stayed finite and monotone.
    for vm in testbed.workers:
        snap = vm.cgroup.snapshot()
        assert all(v >= 0 for v in snap.values())


def test_monitor_bounded_memory_over_long_run():
    testbed = build_testbed(
        TestbedConfig(seed=5, num_workers=2, framework="mapreduce",
                      antagonists=(("fio", None),))
    )
    testbed.deploy_perfcloud()
    testbed.run(3000)
    nm = testbed.node_manager()
    for hist in nm.monitor.history.values():
        for ts in hist.values():
            assert len(ts) <= ts.capacity


# ------------------------------------------------------------------ corpus

def test_scenario_quick_subset_serial_equals_parallel():
    """The quick-tagged scenario corpus subset is byte-identical run
    serially and through the process pool at equal seeds — the scored
    matrix must not depend on scheduling or worker count."""
    import json

    from repro.scenarios import filter_scenarios, load_corpus, run_corpus

    specs = filter_scenarios(load_corpus(), ["tag:quick"])
    assert len(specs) >= 3  # the corpus keeps a meaningful quick subset
    serial = run_corpus(specs, workers=0)
    parallel = run_corpus(specs, workers=4)
    assert json.dumps(serial.to_jsonable(timing=False), sort_keys=True) \
        == json.dumps(parallel.to_jsonable(timing=False), sort_keys=True)


#: First 16 hex characters of the hash over every scenario record's
#: outcome metrics.  The corpus (spec) digest hashes only definitions, so
#: this is the pin that moves when any scenario's outcome moves.
_CORPUS_OUTCOME_DIGEST = "2edbd9784536c834"


def test_scenario_corpus_outcome_is_pinned():
    from repro.experiments.cache import stable_hash
    from repro.scenarios import load_corpus, run_corpus

    doc = run_corpus(load_corpus()).to_jsonable(timing=False)["scenarios"]
    outcome = sorted((s["name"], s["metrics"]) for s in doc)
    assert stable_hash(outcome)[:16] == _CORPUS_OUTCOME_DIGEST

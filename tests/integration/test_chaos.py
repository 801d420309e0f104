"""Chaos harness: the mitigation scenario survives a degraded libvirt.

The fast tests pin determinism and the fault-free identity; the
``chaos``-marked acceptance run (excluded from the default suite, run
via ``make chaos`` / the CI chaos job) replays the full Fig. 9 scenario
under the reference fault mix.
"""

import pytest

from repro.experiments.chaos import ChaosScenario, default_fault_plan, run_chaos
from repro.faults import FaultPlan


def small(**kwargs):
    return ChaosScenario(size_mb=320.0, horizon=6000.0, cooldown_s=30.0,
                         **kwargs)


def test_fault_free_plan_injects_nothing():
    result = run_chaos(small(plan=FaultPlan()))
    assert result.completed and result.agents_alive
    assert result.trace_len == 0
    assert result.fault_counts == {}
    assert all(v == 0 for k, v in result.survival.items()
               if k != "intervals_completed")


def test_same_seed_same_fault_trace_and_summary():
    a = run_chaos(small())
    b = run_chaos(small())
    assert a.trace_len > 0
    assert a.trace_digest == b.trace_digest
    assert a.survival == b.survival
    assert a.fault_counts == b.fault_counts
    assert a.jct == b.jct


def test_different_seed_different_fault_trace():
    a = run_chaos(small(seed=3))
    b = run_chaos(small(seed=4))
    assert a.trace_digest != b.trace_digest


#: ``repro chaos --seed N`` trace digests (first 16 hex characters) under
#: the reference plan.  They move only when the order or the outcome of
#: some fault draw changes; docs/ROBUSTNESS.md records them.
_REFERENCE_DIGESTS = {
    0: "a805a52696754d5c",
    1: "4baad19d132421c4",
    2: "03a20998bce0c580",
    3: "65e05821a1d46ed2",
}


@pytest.mark.parametrize("seed", sorted(_REFERENCE_DIGESTS))
def test_reference_chaos_digest_is_pinned(seed):
    result = run_chaos(ChaosScenario(seed=seed, plan=default_fault_plan()))
    assert result.trace_digest[:16] == _REFERENCE_DIGESTS[seed]


def test_control_plane_survives_faulty_sampling():
    result = run_chaos(small())
    assert result.survived
    assert result.survival["samples_dropped"] > 0  # faults did land


@pytest.mark.chaos
def test_acceptance_full_chaos_run():
    """ISSUE acceptance: ≥10% call failures, periodic counter resets and
    one antagonist crash/restart — the job completes, no control-loop
    task dies, actuations were retried and caps reconciled."""
    scenario = ChaosScenario()  # the reference mix (call_failure_p=0.1 etc.)
    assert scenario.plan.call_failure_p >= 0.10
    assert scenario.plan.counter_reset_period_s is not None
    assert any(ev.vm == "fio" for ev in scenario.plan.crashes)
    result = run_chaos(scenario)
    assert result.completed, "job must finish despite the fault mix"
    assert result.agents_alive, "no control-loop task may die"
    assert result.survival["actuations_retried"] > 0
    assert result.survival["caps_reconciled"] > 0
    assert result.survival["counter_resets"] > 0
    assert result.fault_counts.get("crash") == 1
    assert result.fault_counts.get("restart") == 1
    # Determinism holds at full scale too.
    again = run_chaos(ChaosScenario())
    assert again.trace_digest == result.trace_digest
    assert again.survival == result.survival


@pytest.mark.chaos
def test_acceptance_survives_harsher_mix():
    plan = default_fault_plan(call_failure_p=0.2, freeze_p=0.1,
                              counter_reset_period_s=60.0)
    result = run_chaos(ChaosScenario(plan=plan))
    assert result.survived

"""Harness-level chaos: the drill that `repro chaos --harness` runs.

Tier-1 keeps a scaled-down plan (one kill, one crash, one corruption —
a couple of seconds); the full mixed-fault drill, which also exercises
SIGSTOP heartbeat loss and deadline stalls, carries the ``chaos``
marker and runs in the chaos CI job / ``make chaos``.
"""

import pytest

from repro.resilience import (
    HarnessChaosPlan,
    default_harness_plan,
    run_harness_chaos,
)

pytestmark = pytest.mark.timeout(300)

SMALL = HarnessChaosPlan(
    n_tasks=6, seed=7, kills=(1,), raises_=(3,), corrupt=(2, 4),
)


def test_small_drill_survives_with_byte_identical_merge():
    result = run_harness_chaos(SMALL, workers=2)
    assert result.survived
    assert result.identical
    assert result.statuses[1] == "retried"  # killed, then recomputed
    assert result.statuses[3] == "retried"  # raised, then recomputed
    assert all(
        result.statuses[i] == "ok" for i in (0, 2, 4, 5)
    )
    stats = result.chaos_report.supervisor
    assert stats.worker_deaths >= 1
    assert stats.retries >= 1
    assert not stats.serial_fallback


def test_corruption_recovery_recomputes_exactly_the_corrupted_tasks():
    result = run_harness_chaos(SMALL, workers=2)
    assert result.recovered_from_corruption
    assert result.rerun_report is not None
    # The warm rerun re-executed the two corrupted tasks and nothing else.
    assert result.rerun_report.executed == 2
    assert result.rerun_report.cached == 4


def test_same_seed_and_kill_plan_is_deterministic_across_runs():
    """Satellite acceptance: same seed + same worker-kill plan ⇒
    identical merged results and trace digest across two runs."""
    first = run_harness_chaos(SMALL, workers=2)
    second = run_harness_chaos(SMALL, workers=2)
    assert first.survived and second.survived
    assert first.digest == second.digest
    assert first.chaos_report.results == second.chaos_report.results
    assert first.statuses == second.statuses


def test_different_seed_changes_the_digest():
    other = HarnessChaosPlan(
        n_tasks=6, seed=8, kills=(1,), raises_=(3,), corrupt=(2, 4),
    )
    assert (
        run_harness_chaos(SMALL, workers=2).digest
        != run_harness_chaos(other, workers=2).digest
    )


def test_default_drill_digest_is_pinned():
    """The exact drill `repro chaos --harness` runs (its default
    ``--seed 3``, 4 workers): the trace digest must not move under a
    refactor of the engine."""
    result = run_harness_chaos(default_harness_plan(seed=3), workers=4)
    assert result.survived
    assert result.identical
    assert result.digest == "7dfb3d0900f316d7"


def test_plan_rejects_double_faulted_or_out_of_range_tasks():
    with pytest.raises(ValueError):
        HarnessChaosPlan(n_tasks=4, kills=(1,), stalls=(1,))
    with pytest.raises(ValueError):
        HarnessChaosPlan(n_tasks=4, kills=(9,))


@pytest.mark.chaos
def test_full_mixed_fault_drill_survives():
    """The `repro chaos --harness` acceptance surface: kills, SIGSTOP
    freezes, deadline stalls, crashes and cache corruption at once."""
    result = run_harness_chaos(default_harness_plan(), workers=4)
    assert result.survived
    assert result.identical
    assert result.recovered_from_corruption
    plan = default_harness_plan()
    for i in plan.kills + plan.sigstops + plan.stalls + plan.raises_:
        assert result.statuses[i] == "retried"
    stats = result.chaos_report.supervisor
    assert stats.worker_deaths >= len(plan.kills)
    assert stats.heartbeat_kills >= len(plan.sigstops)
    assert stats.timeouts >= len(plan.stalls)
    assert stats.respawns >= 1
    assert not stats.serial_fallback
    summary = result.summary()
    assert summary["survived"] is True
    assert summary["supervisor"]["worker_deaths"] == stats.worker_deaths

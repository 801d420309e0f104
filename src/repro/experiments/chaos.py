"""Chaos harness: the Fig. 9 mitigation scenario under fault injection.

:func:`run_chaos` replays the paper's dynamic-control story — a
high-priority job sharing a host with I/O and memory antagonists, a
PerfCloud agent throttling them — while a
:class:`~repro.faults.injector.FaultInjector` degrades the libvirt
facade underneath the agent: transient call failures, frozen and reset
counters, slow actuations, and an antagonist VM crashing and rebooting
mid-run.  The run *survives* when no control-loop task dies and the job
still completes; the :class:`ChaosResult` reports the survival counters
(samples dropped, actuations retried, caps reconciled, ...) next to the
injected-fault totals.

The world itself is a scenario :class:`~repro.scenarios.spec.WorldDef`
(:meth:`ChaosScenario.world`), run through the scenario corpus's
:func:`~repro.scenarios.world.execute_world` and so built by
:func:`~repro.experiments.harness.build_testbed` like every figure.

Everything is driven by the simulator's seeded RNG streams, so the same
seed and fault plan reproduce the identical fault trace and survival
summary — ``ChaosResult.trace_digest`` pins that determinism in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.faults.spec import CrashEvent, FaultPlan

if TYPE_CHECKING:
    from repro.scenarios.spec import WorldDef

__all__ = ["ChaosScenario", "ChaosResult", "default_fault_plan", "run_chaos"]


def default_fault_plan(
    *,
    call_failure_p: float = 0.1,
    connection_failure_p: float = 0.02,
    freeze_p: float = 0.05,
    freeze_duration_s: float = 15.0,
    counter_reset_period_s: Optional[float] = 120.0,
    counter_reset_p: float = 0.0,
    latency_p: float = 0.1,
    latency_s: float = 2.0,
    crash_vm: Optional[str] = "fio",
    crash_at_s: float = 60.0,
    restart_after_s: float = 30.0,
) -> FaultPlan:
    """The reference chaos mix: every fault class the injector knows,
    at rates a long-lived production daemon plausibly sees compressed
    into one run."""
    crashes: Tuple[CrashEvent, ...] = ()
    if crash_vm:
        crashes = (CrashEvent(vm=crash_vm, at_s=crash_at_s,
                              restart_after_s=restart_after_s),)
    return FaultPlan(
        call_failure_p=call_failure_p,
        connection_failure_p=connection_failure_p,
        freeze_p=freeze_p,
        freeze_duration_s=freeze_duration_s,
        counter_reset_period_s=counter_reset_period_s,
        counter_reset_p=counter_reset_p,
        latency_p=latency_p,
        latency_s=latency_s,
        crashes=crashes,
    )


@dataclass(frozen=True)
class ChaosScenario:
    """The Fig. 9-style world the faults are thrown at."""

    seed: int = 3
    num_workers: int = 6
    size_mb: float = 640.0
    #: (kind, host_index) antagonist set, as in TestbedConfig.
    antagonists: Tuple[Tuple[str, Optional[int]], ...] = (
        ("fio", None), ("stream", None),
    )
    horizon: float = 8000.0
    #: Keep simulating this long after job completion (recovery window —
    #: caps release and reconciliation settles).
    cooldown_s: float = 60.0
    plan: FaultPlan = field(default_factory=default_fault_plan)

    def world(self) -> "WorldDef":
        """This scenario as a scenario world: one R630 host, one terasort
        job, the antagonists (host ``None`` is host 0), the fault plan
        and the default PerfCloud policy."""
        # Imported here: the scenarios package imports this one.
        from repro.scenarios.spec import (
            AntagonistDef, HostDef, JobDef, WorkloadDef, WorldDef,
        )

        job = JobDef(kind="mapreduce", benchmark="terasort",
                     size_mb=self.size_mb, reducers=10)
        return WorldDef(
            seed=self.seed, horizon=self.horizon, cooldown_s=self.cooldown_s,
            hosts=(HostDef(),),
            workload=WorkloadDef(framework="mapreduce",
                                 workers=self.num_workers, jobs=(job,)),
            antagonists=tuple(AntagonistDef(kind=kind, host=host or 0)
                              for kind, host in self.antagonists),
            faults=self.plan,
        )


@dataclass
class ChaosResult:
    """Survival summary of one chaos run."""

    #: The job finished within the horizon.
    completed: bool
    jct: Optional[float]
    #: Every agent's periodic control task survived to the end.
    agents_alive: bool
    #: Merged control-plane + monitor counters (see survival_summary()).
    survival: Dict[str, int]
    #: Injected-fault totals by kind.
    fault_counts: Dict[str, int]
    #: Number of injected faults.
    trace_len: int
    #: sha256 over the fault trace — two runs with the same seed and
    #: plan must produce the same digest.
    trace_digest: str

    @property
    def survived(self) -> bool:
        """Job done and every control loop still alive."""
        return self.completed and self.agents_alive


def run_chaos(scenario: Optional[ChaosScenario] = None) -> ChaosResult:
    """Run the mitigation scenario under the scenario's fault plan."""
    from repro.scenarios.world import execute_world

    run = execute_world((scenario or ChaosScenario()).world())
    perfcloud, injector = run.perfcloud, run.injector
    return ChaosResult(
        completed=run.completed,
        jct=run.job_slots[0]["job"].completion_time,
        agents_alive=perfcloud.all_agents_alive(),
        survival=perfcloud.survival_summary(),
        fault_counts=injector.fault_counts(),
        trace_len=len(injector.trace),
        trace_digest=injector.digest(),
    )

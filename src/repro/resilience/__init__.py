"""Resilience subsystem: supervision policy, checkpoints, breakers.

Layers, each usable on its own:

* supervision — :class:`SupervisorPolicy` is one of the two policies of
  the single experiment engine,
  :func:`repro.experiments.parallel.run_many_report` (timeouts,
  heartbeats, retries, respawn, speculation, salvage; the other policy,
  ``policy=None``, is the fault-free mode).  It lives with the engine
  and is re-exported here with :class:`SupervisorStats` and
  :data:`WORKER_ENV`;
* :mod:`repro.resilience.checkpoint` — append-only manifests of
  completed task keys so killed sweeps/corpus runs resume without
  re-executing finished work;
* :mod:`repro.resilience.breaker` / :mod:`repro.resilience.ladder` —
  per-host circuit breaker over the libvirt facade and the control-
  plane degradation ladder (full CUBIC → static 20 % cap → monitor)
  it drives;
* :mod:`repro.resilience.harness_chaos` — chaos drills that prove the
  above by killing, freezing and corrupting the harness itself.

Only the breaker/ladder layer is imported eagerly: the control plane
(:mod:`repro.core.node_manager`) depends on it, while the supervision
and chaos names depend back on :mod:`repro.experiments` — importing
them here at module load would close an import cycle, so they resolve
lazily on first attribute access.
"""

import importlib

from repro.resilience.breaker import (
    BreakerOpen,
    BreakerPolicy,
    CircuitBreaker,
    GuardedConnection,
    GuardedDomain,
)
from repro.resilience.ladder import (
    FULL,
    MONITOR,
    STATIC_CAP,
    DegradationLadder,
    ResiliencePolicy,
    ResilienceStats,
)

__all__ = [
    "BreakerOpen",
    "BreakerPolicy",
    "Checkpoint",
    "CircuitBreaker",
    "DegradationLadder",
    "FULL",
    "GuardedConnection",
    "GuardedDomain",
    "HarnessChaosPlan",
    "HarnessChaosResult",
    "MONITOR",
    "ResiliencePolicy",
    "ResilienceStats",
    "STATIC_CAP",
    "SupervisorPolicy",
    "SupervisorStats",
    "WORKER_ENV",
    "default_harness_plan",
    "run_harness_chaos",
]

_LAZY = {
    "Checkpoint": "repro.resilience.checkpoint",
    "SupervisorPolicy": "repro.experiments.parallel",
    "SupervisorStats": "repro.experiments.parallel",
    "WORKER_ENV": "repro.experiments.parallel",
    "HarnessChaosPlan": "repro.resilience.harness_chaos",
    "HarnessChaosResult": "repro.resilience.harness_chaos",
    "default_harness_plan": "repro.resilience.harness_chaos",
    "run_harness_chaos": "repro.resilience.harness_chaos",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value

"""Experiment harness: every figure in the paper's evaluation.

:mod:`~repro.experiments.harness` builds testbeds (simulator + cluster +
cloud manager + frameworks + antagonists) from declarative configs;
:mod:`~repro.experiments.figures` contains one runner per paper figure
(fig1 … fig12), each returning a plain-data result object whose fields
mirror the figure's series; :mod:`~repro.experiments.report` renders
those results as the text tables the benchmarks print.

:mod:`~repro.experiments.parallel` fans independent runs (sweep grid
points, per-seed repetitions, figure scenarios) across a process pool
with deterministic, submission-order merging, and
:mod:`~repro.experiments.cache` memoizes their results on disk keyed by
a stable hash of the task plus the code version (see docs/PARALLEL.md).

Runners accept size/seed parameters: the defaults are scaled to finish in
seconds-to-minutes on a laptop while preserving the paper's shape; pass
``full_scale=True`` (where available) for the paper's exact dimensions.
"""

from repro.experiments.chaos import (
    ChaosResult,
    ChaosScenario,
    default_fault_plan,
    run_chaos,
)
from repro.experiments.harness import (
    Testbed,
    TestbedConfig,
    build_testbed,
    make_antagonist,
)
from repro.experiments import figures, sweeps
from repro.experiments.cache import ResultCache, task_key
from repro.experiments.parallel import (
    Progress,
    RunReport,
    WorkerError,
    run_many,
    run_many_report,
)
from repro.experiments.report import ProgressReporter, render_table
from repro.obs.tracer import MetricTracer

__all__ = [
    "ChaosResult",
    "ChaosScenario",
    "MetricTracer",
    "Progress",
    "ProgressReporter",
    "ResultCache",
    "RunReport",
    "Testbed",
    "TestbedConfig",
    "WorkerError",
    "build_testbed",
    "default_fault_plan",
    "figures",
    "sweeps",
    "make_antagonist",
    "render_table",
    "run_chaos",
    "run_many",
    "run_many_report",
    "task_key",
]

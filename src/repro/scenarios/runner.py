"""Execute a scenario corpus through the parallel engine, score it,
and emit the scored matrix.

Each scenario expands into one :class:`ScenarioTask` (plus an
antagonist-free **baseline** task when any expectation needs a
``*_slowdown`` metric); the whole task list goes through
:func:`~repro.experiments.parallel.run_many_report` — so ``workers=N``
fans scenarios across a process pool and ``cache_dir`` memoizes outcomes
content-addressed by world definition + code version.  A warm-cache
re-run of an unchanged corpus executes **zero** simulations and only
re-scores.

Runner crashes are captured per task (an ``error`` outcome) rather than
aborting the corpus; the scorer fails every expectation of a crashed
scenario with the captured reason.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache, code_version
from repro.experiments.parallel import (
    Progress,
    SupervisorPolicy,
    run_many_report,
)
from repro.experiments.report import render_table
from repro.scenarios.loader import corpus_digest
from repro.scenarios.scorer import ScenarioScore, checks_to_jsonable, score_scenario
from repro.scenarios.spec import ScenarioSpec, WorldDef, scenario_hash

__all__ = ["CorpusResult", "ScenarioRecord", "ScenarioTask", "run_corpus",
           "run_scenario_task"]


@dataclass(frozen=True)
class ScenarioTask:
    """One simulation to run: a world plus its role in the matrix.

    Deliberately excludes the scenario's name, tags, and expectations —
    the cache key must cover exactly what determines the outcome, so
    re-judging a cached world (editing an expectation) never re-runs it.
    """

    world: WorldDef
    role: str = "scenario"  # "scenario" | "baseline"


def baseline_world(world: WorldDef) -> WorldDef:
    """The reference world: same in every way, minus trouble."""
    return replace(world, antagonists=(), faults=None)


def run_scenario_task(task: ScenarioTask) -> Dict[str, Any]:
    """Module-level task runner (picklable; never raises).

    A crash inside the world builder or simulator is folded into an
    ``{"error": ...}`` outcome so one broken scenario cannot take down
    the rest of the corpus — the scorer turns it into a failed scenario
    with the traceback's last line as the reason.
    """
    from repro.scenarios.world import run_world

    try:
        return run_world(task.world)
    except Exception as exc:
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return {"error": last}


@dataclass(frozen=True)
class ScenarioRecord:
    """One row of the scored matrix."""

    name: str
    hash: str
    seed: int
    tags: Tuple[str, ...]
    score: ScenarioScore
    metrics: Dict[str, Any]

    @property
    def passed(self) -> bool:
        return self.score.passed


@dataclass
class CorpusResult:
    """The scored matrix plus execution accounting."""

    records: List[ScenarioRecord]
    corpus_digest: str
    code_version: str
    executed: int
    cached: int
    elapsed: float
    #: Tasks already recorded complete by a resumed checkpoint manifest
    #: (0 for fresh runs and runs without ``resume``).
    resumed: int = 0

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def total_score(self) -> float:
        """Mean scenario score, in [0, 1]."""
        if not self.records:
            return 1.0
        return sum(r.score.score for r in self.records) / len(self.records)

    # ------------------------------------------------------------ rendering
    def to_jsonable(self, *, timing: bool = True) -> Dict[str, Any]:
        """The scored-matrix document (deterministic when ``timing=False``)."""
        out: Dict[str, Any] = {
            "corpus_digest": self.corpus_digest,
            "code_version": self.code_version,
            "summary": {
                "scenarios": len(self.records),
                "passed": sum(1 for r in self.records if r.passed),
                "failed": sum(1 for r in self.records if not r.passed),
                "total_score": self.total_score,
                "executed": self.executed,
                "cached": self.cached,
            },
            "scenarios": [
                {
                    "name": r.name,
                    "hash": r.hash,
                    "seed": r.seed,
                    "tags": list(r.tags),
                    "passed": r.passed,
                    "score": r.score.score,
                    "checks": checks_to_jsonable(r.score.checks),
                    "metrics": _jsonable(r.metrics),
                }
                for r in self.records
            ],
        }
        if timing:
            out["summary"]["elapsed_s"] = round(self.elapsed, 3)
        return out

    def render(self) -> str:
        """Terminal table of the scored matrix."""
        rows = []
        for r in self.records:
            failed = [c for c in r.score.checks if not c.passed]
            detail = "; ".join(
                f"{c.metric} {c.expected} (got {c.observed}"
                + (f": {c.reason}" if c.reason else "") + ")"
                for c in failed[:2]
            )
            if len(failed) > 2:
                detail += f"; +{len(failed) - 2} more"
            rows.append([
                r.name,
                ",".join(r.tags),
                r.seed,
                r.score.summary,
                "PASS" if r.passed else "FAIL",
                detail or "-",
            ])
        table = render_table(
            ["scenario", "tags", "seed", "checks", "verdict", "failures"],
            rows, title="scenario corpus",
        )
        passed = sum(1 for r in self.records if r.passed)
        summary = (
            f"\n{passed}/{len(self.records)} scenarios passed "
            f"(score {self.total_score:.2f}) — "
            f"executed {self.executed}, cached {self.cached}, "
            f"{self.elapsed:.1f}s\n"
            f"corpus digest {self.corpus_digest[:16]}  "
            f"code {self.code_version}"
        )
        return table + summary


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return None if obj != obj else obj  # NaN -> null
    return obj


def _slowdown(metrics: Dict[str, Any], baseline: Dict[str, Any]) -> None:
    """Attach ``*_slowdown`` metrics from a baseline outcome, in place."""
    if "error" in baseline:
        metrics["baseline_error"] = baseline["error"]
        return
    for key in ("victim_jct", "mean_jct", "p95_jct"):
        contended = metrics.get(key)
        reference = baseline.get(key)
        name = key.replace("_jct", "_slowdown")
        if (isinstance(contended, (int, float)) and contended == contended
                and isinstance(reference, (int, float))
                and reference and reference == reference):
            metrics[name] = float(contended) / float(reference)
        else:
            metrics[name] = float("nan")
    metrics["baseline_victim_jct"] = baseline.get("victim_jct")


def run_corpus(
    specs: Sequence[ScenarioSpec],
    *,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
    supervise: bool = False,
    resume: Optional[str] = None,
) -> CorpusResult:
    """Run and score a list of scenarios; returns the scored matrix.

    Results come back in scenario order regardless of ``workers``, so
    the matrix is byte-identical serial vs parallel at equal seeds.

    ``supervise=True`` runs under the default
    :class:`~repro.experiments.parallel.SupervisorPolicy` (per-task
    timeouts, retries, worker respawn) instead of the fault-free mode;
    a supervised task that exhausts every attempt scores as a failed
    scenario with a ``task salvaged`` reason instead of aborting the
    corpus.  ``resume``
    names a checkpoint-manifest path: completed task keys are recorded
    as the run progresses, and a re-invocation after a mid-flight kill
    re-executes zero finished tasks (requires ``cache_dir``; the
    manifest is scoped to this corpus + code version, so a changed
    corpus starts clean).
    """
    tasks: List[ScenarioTask] = []
    slots: List[Tuple[int, Optional[int]]] = []  # (scenario idx, baseline idx)
    for spec in specs:
        main = len(tasks)
        tasks.append(ScenarioTask(world=spec.world))
        base = None
        if spec.needs_baseline:
            base = len(tasks)
            tasks.append(ScenarioTask(world=baseline_world(spec.world),
                                      role="baseline"))
        slots.append((main, base))

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    checkpoint = None
    resumed = 0
    if resume is not None:
        if cache is None:
            raise ValueError("resume requires a cache dir (results of "
                             "finished tasks replay from the cache)")
        from repro.resilience.checkpoint import Checkpoint

        checkpoint = Checkpoint(
            resume,
            run_id=f"{corpus_digest(specs)}:{code_version()}",
            total=len(tasks),
        )
        resumed = len(checkpoint)

    report = run_many_report(
        tasks, run_scenario_task, workers=workers,
        policy=SupervisorPolicy() if supervise else None,
        cache=cache, progress=progress, checkpoint=checkpoint,
    )
    if checkpoint is not None:
        checkpoint.close()

    records: List[ScenarioRecord] = []
    for spec, (main, base) in zip(specs, slots):
        outcome = report.results[main]
        # A salvaged supervised task resolves to None: score it as a
        # failed scenario rather than crashing the judgement pass.
        metrics = dict(outcome) if outcome is not None else {
            "error": "task salvaged (every supervised attempt failed)"
        }
        if base is not None:
            _slowdown(metrics, report.results[base]
                      if report.results[base] is not None
                      else {"error": "baseline salvaged"})
        score = score_scenario(spec, metrics, error=metrics.get("error"))
        records.append(ScenarioRecord(
            name=spec.name,
            hash=scenario_hash(spec),
            seed=spec.world.seed,
            tags=spec.tags,
            score=score,
            metrics=metrics,
        ))
    return CorpusResult(
        records=records,
        corpus_digest=corpus_digest(specs),
        code_version=code_version(),
        executed=report.executed,
        cached=report.cached,
        elapsed=report.elapsed,
        resumed=resumed,
    )

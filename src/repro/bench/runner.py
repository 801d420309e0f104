"""Suite orchestration and the ``repro bench`` entry point.

A bench result is a JSON document::

    {"meta": {"rev": ..., "python": ..., "numpy": ..., "unix_time": ...},
     "metrics": {"micro.identifier.us_per_interval": ..., ...}}

``run_suite`` produces one, ``write_result`` saves it as
``BENCH_<rev>.json`` (the committed trajectory points), and
``main`` wires it all behind ``repro bench`` — see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, Optional

from repro.bench.gate import DEFAULT_TOLERANCE, GateResult, compare

__all__ = ["run_suite", "write_result", "load_result", "default_baseline_path",
           "format_metrics", "format_gate", "main"]

#: Repository-relative location of the committed comparison baseline.
BASELINE_RELPATH = os.path.join("benchmarks", "perf", "baseline.json")


def git_rev(short: bool = True) -> str:
    """Current git revision, or ``local`` outside a repository."""
    try:
        args = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
        out = subprocess.run(
            args, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return out or "local"
    except Exception:
        return "local"


def run_suite(
    *,
    micro: bool = True,
    macro: bool = True,
    repeat: int = 3,
    full_fig11: bool = False,
) -> Dict:
    """Run the selected benchmark layers and assemble the result document."""
    import numpy

    metrics: Dict[str, float] = {}
    if micro:
        from repro.bench.micro import run_micro

        metrics.update(run_micro(repeat=repeat))
    if macro:
        from repro.bench.macro import run_macro

        metrics.update(run_macro(full_fig11=full_fig11))
    return {
        "meta": {
            "rev": git_rev(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "cpus_available": _cpus_available(),
            "unix_time": int(time.time()),
        },
        "metrics": metrics,
    }


def _cpus_available() -> Optional[int]:
    """CPUs this process may actually use (cgroup/affinity-aware).

    ``os.cpu_count()`` reports the machine; a containerized CI runner is
    often pinned to fewer cores, which is what any process-parallel
    reading physically depends on.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count()


def write_result(result: Dict, path: Optional[str] = None) -> str:
    """Write a bench result; default path is ``BENCH_<rev>.json``."""
    if path is None:
        path = f"BENCH_{result['meta']['rev']}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_result(path: str) -> Dict:
    with open(path) as fh:
        doc = json.load(fh)
    if "metrics" not in doc:
        raise ValueError(f"{path} is not a bench result (no 'metrics' key)")
    return doc


def default_baseline_path() -> Optional[str]:
    """The committed baseline, resolved from the repo root if available."""
    candidates = [BASELINE_RELPATH]
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        if top:
            candidates.insert(0, os.path.join(top, BASELINE_RELPATH))
    except Exception:
        pass
    for path in candidates:
        if os.path.exists(path):
            return path
    return None


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


def format_metrics(result: Dict) -> str:
    """Human-readable metric table for one bench result."""
    meta = result.get("meta", {})
    lines = [
        f"rev {meta.get('rev', '?')} · python {meta.get('python', '?')}"
        f" · numpy {meta.get('numpy', '?')}",
        "",
        f"{'metric':<44} {'value':>14}",
        "-" * 59,
    ]
    for name in sorted(result["metrics"]):
        lines.append(f"{name:<44} {_fmt(result['metrics'][name]):>14}")
    return "\n".join(lines)


def format_gate(gate: GateResult, baseline_rev: str) -> str:
    """Human-readable comparison table with gate verdicts."""
    lines = [
        f"comparison vs baseline rev {baseline_rev} "
        "(improvement > 1.00x means better)",
        "",
        f"{'metric':<44} {'baseline':>12} {'current':>12} {'change':>9}  verdict",
        "-" * 90,
    ]
    for c in gate.comparisons:
        if c.regressed:
            verdict = "REGRESSED"
        elif not c.gated:
            verdict = "(info)"
        else:
            verdict = "ok"
        lines.append(
            f"{c.metric:<44} {_fmt(c.baseline):>12} {_fmt(c.current):>12} "
            f"{c.improvement:>8.2f}x  {verdict}"
        )
    for name in gate.missing_in_baseline:
        lines.append(f"{name:<44} {'-':>12} {'new':>12} {'':>9}  (info)")
    for name in gate.missing_in_current:
        lines.append(f"{name:<44} {'gone':>12} {'-':>12} {'':>9}  (info)")
    return "\n".join(lines)


def main(args) -> int:
    """``repro bench`` implementation; returns a process exit code."""
    quick = getattr(args, "quick", False)
    result = run_suite(
        micro=True,
        macro=not (args.micro_only or quick),
        repeat=1 if quick else args.repeat,
        full_fig11=args.full_macro,
    )
    print(format_metrics(result))
    out_path = write_result(result, args.out)
    print(f"\nresult written to {out_path}")

    if getattr(args, "profile", False):
        from repro.bench.macro import profile_macro

        report = profile_macro(
            top_n=getattr(args, "profile_top", 30),
            full_fig11=args.full_macro,
        )
        root, _ = os.path.splitext(out_path)
        profile_path = f"{root}_profile.txt"
        with open(profile_path, "w") as fh:
            fh.write(report)
        print(f"macro cProfile report written to {profile_path}")

    baseline_path = args.compare
    if baseline_path is None and (args.check or args.compare_default):
        baseline_path = default_baseline_path()
        if baseline_path is None:
            print("no committed baseline found "
                  f"({BASELINE_RELPATH}); skipping comparison")
            return 1 if args.check else 0
    if baseline_path is None:
        return 0

    baseline = load_result(baseline_path)
    gate = compare(
        result["metrics"], baseline["metrics"],
        tolerance=args.tolerance, strict=args.strict,
    )
    print()
    print(format_gate(gate, baseline.get("meta", {}).get("rev", "?")))
    if gate.failures:
        print(f"\nGATE FAILED: {len(gate.failures)} metric(s) regressed "
              f"beyond {args.tolerance:.0%} tolerance:")
        for c in gate.failures:
            print(f"  {c.metric}: {_fmt(c.baseline)} -> {_fmt(c.current)} "
                  f"({c.improvement:.2f}x)")
        return 1 if args.check else 0
    print(f"\ngate ok: no gated metric regressed beyond "
          f"{args.tolerance:.0%} tolerance")
    return 0

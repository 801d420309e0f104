"""Checks of the end-to-end benchmark itself, at test size.

Run with ``python -m pytest benchmarks/e2e/test_e2e.py``.  Every
workload runs one pass at a tiny size (``run.py --tiny --seconds 0``),
in its own process as the benchmark does; the sizes suit a test only.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(HERE))
import multirun  # noqa: E402


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--tiny", "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_digests(proc: subprocess.CompletedProcess) -> dict:
    """Traced flag -> digests of the passes the run printed."""
    out = {0: [], 1: []}
    for line in proc.stdout.splitlines():
        words = line.split()
        if words[:1] == ["pass"] and words[2:3] == ["traced"]:
            out[int(words[3])].append(words[-1])
    return out


def assert_metrics(result: dict, wanted: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_the_digest(workload):
    proc = run(workload, "--trace", "1")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert_metrics(result, SPEC["per_layer"])
    digests = pass_digests(proc)
    assert len(digests[0]) == len(digests[1]) == 1
    assert digests[0] == digests[1]
    coverage = result["metrics"]["bench.layer_coverage"]["value"]
    assert 0.95 <= coverage <= 1.05


def test_corrupted_golden_fails_every_pass(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"digests": {str(SEED): "0" * 64}}))
    result = result_of(run("fleet_quiet", "--golden", str(golden)))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1.0


def test_tree_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("fleet_quiet", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


METRIC = {"name": "wall_s", "better": "lower", "bound": 0.1}


@pytest.mark.parametrize("rev, head, word", [
    ([10.0, 10.1, 9.9, 10.0] * 3, [9.0, 9.1, 8.9, 9.0] * 3, "gain"),
    ([10.0, 10.1, 9.9, 10.0] * 3, [10.0, 10.05, 9.95, 10.0] * 3, "no change"),
    ([10.0, 10.1, 9.9, 10.0] * 3, [11.5, 11.6, 11.4, 11.5] * 3, "regression"),
    ([10.0, 14.0, 7.0, 12.0] * 3, [10.5, 13.0, 8.0, 12.5] * 3, "unresolved"),
])
def test_ab_verdict(rev, head, word):
    assert multirun.verdict(rev, head, METRIC)[1] == word

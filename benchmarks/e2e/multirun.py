"""Sessions of many ``run.py`` runs, each in its own process.

* ``--baseline`` runs two sets of untraced runs per workload, one seed
  per run, plus one traced run, and writes ``baseline_<rev>.json`` with
  each set's medians and quartiles and the bound they support.
* ``--ab REV`` checks REV out into a ``git worktree`` under ``out/`` and
  runs it and this tree in pairs, alternating which goes first, with
  this tree's benchmark code for both.  Per workload and end-to-end
  metric it prints both sides' medians and quartiles, the share of
  pairs this tree won and a verdict: ``gain`` (at least 10 pairs, won
  at least 9 in 10 and the medians differ by more than REV's quartile
  distance), ``unresolved`` (REV's own spread exceeds the bound),
  ``regression`` (median worse than REV's by more than the bound) or
  ``no change``.
* ``--write-golden`` re-pins the digests under ``golden/`` for a seed
  range, one pass per seed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
GOLDEN = HERE / "golden"
#: A run is a few dozen seconds; anything past this has hung.
RUN_TIMEOUT_S = 600
#: Fewest A/B pairs on which a gain may be claimed.
MIN_PAIRS = 10


def run_once(workload: str, seed: int, *, seconds=None, trace: int = 0,
             src=None, extra=()) -> tuple:
    """One ``run.py`` process: (its JSON result, its stdout)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *extra]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if src is not None:
        cmd += ["--src", str(src)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result, proc.stdout


def summary(values) -> dict:
    """Median, quartiles and quartile distance over median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of it."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return -change if better == "higher" else change


def verdict(rev: list, head: list, metric: dict) -> tuple:
    """(share of pairs HEAD won, verdict) for one metric on one workload."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    won = sum(1 for a, b in zip(rev, head) if sign * (b - a) > 0)
    share = won / len(rev)
    r, h = summary(rev), summary(head)
    if (len(rev) >= MIN_PAIRS and share >= 0.9
            and sign * (h["median"] - r["median"]) > r["q3"] - r["q1"]):
        return share, "gain"
    if r["spread"] > metric["bound"]:
        if all(sign * (b - a) > 0 for a in rev for b in head):
            return share, "no change"
        return share, "unresolved"
    if worse_by(r["median"], h["median"], metric["better"]) > metric["bound"]:
        return share, "regression"
    return share, "no change"


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def workload_names(args, spec) -> list:
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = set(wanted) - set(names)
        if unknown:
            raise SystemExit(f"error: unknown workloads {sorted(unknown)}")
        names = [n for n in names if n in wanted]
    return names


def baseline(args, spec) -> int:
    try:
        # Named after the program measured: the commit, and whether its
        # source tree differs from it.
        rev = git("rev-parse", "--short=7", "HEAD")
        if git("status", "--porcelain", "--", "src"):
            rev += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    names = workload_names(args, spec)
    seeds = [args.seed + i for i in range(args.runs)]
    runs = {w: {1: [], 2: []} for w in names}
    # Set 1 of every workload, then set 2: drift between the sets shows.
    for n in (1, 2):
        for w in names:
            for s in seeds:
                result, _ = run_once(w, s, seconds=args.seconds)
                runs[w][n].append(result)
                print(f"set {n} {w} seed {s} correct {result['correct']} "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
    report = {"rev": rev, "machine": machine(),
              "run_seconds": args.seconds or spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    for w in names:
        traced, _ = run_once(w, args.seed, seconds=args.seconds, trace=1)
        entry = {"attempted": 0, "failed": 0, "metrics": {},
                 "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
        for n in (1, 2):
            entry["attempted"] += sum(r["attempted"] for r in runs[w][n])
            entry["failed"] += sum(r["failed"] for r in runs[w][n])
        for m in spec["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in runs[w][n]
                             if m["name"] in r["metrics"]]) for n in (1, 2)]
            drift = worse_by(sets[0]["median"], sets[1]["median"], m["better"])
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "set1": sets[0], "set2": sets[1],
                "set2_worse_by": drift, "bound": m["bound"],
                # The least bound both sets support: three times the
                # wider spread, and no less than the drift between them.
                "supported_bound": max(3 * max(s["spread"] for s in sets), drift),
            }
        report["workloads"][w] = entry
    path = HERE / f"baseline_{rev}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_baseline(report)
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def print_baseline(report: dict) -> None:
    print(f"{'workload':18s} {'metric':20s} {'set1 median':>13s} {'spread':>7s} "
          f"{'set2 median':>13s} {'spread':>7s} {'worse':>7s} {'bound':>6s}")
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            s1, s2 = m["set1"], m["set2"]
            flag = "" if max(s1["spread"], s2["spread"], m["set2_worse_by"]) <= m["bound"] else "  !"
            print(f"{w:18s} {name:20s} {s1['median']:13.6g} {s1['spread']:7.4f} "
                  f"{s2['median']:13.6g} {s2['spread']:7.4f} {m['set2_worse_by']:7.4f} "
                  f"{m['bound']:6.3f}{flag}")
        print(f"{w:18s} failed {entry['failed']}/{entry['attempted']}")


def machine() -> str:
    """CPU model, usable cores and Python version of this box."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"{model}, {len(os.sched_getaffinity(0))} cores usable, "
            f"python {platform.python_version()}")


def ab(args, spec) -> int:
    sha = git("rev-parse", "--verify", f"{args.ab}^{{commit}}")
    tree = OUT / f"ab-{sha[:12]}"
    OUT.mkdir(parents=True, exist_ok=True)
    git("worktree", "add", "--detach", str(tree), sha)
    try:
        sides = {"rev": tree / "src", "head": ROOT / "src"}
        results = {}
        for w in workload_names(args, spec):
            results[w] = {"rev": [], "head": []}
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("rev", "head") if i % 2 == 0 else ("head", "rev")
                for side in order:
                    result, _ = run_once(w, seed, seconds=args.seconds, src=sides[side])
                    results[w][side].append(result)
                print(f"{w} pair {i} seed {seed} first {order[0]}", flush=True)
    finally:
        git("worktree", "remove", "--force", str(tree))
    print(f"A/B: rev {args.ab} ({sha[:12]}) vs this tree, {args.pairs} pairs")
    print(f"{'workload':18s} {'metric':20s} {'rev median [q1, q3]':>36s} "
          f"{'head median [q1, q3]':>36s} {'won':>5s}  verdict")
    status = 0
    for w, sides in results.items():
        failed = {k: sum(r["failed"] for r in v) for k, v in sides.items()}
        for m in spec["end_to_end"]:
            pairs = [(a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"])
                     for a, b in zip(sides["rev"], sides["head"])
                     if m["name"] in a["metrics"] and m["name"] in b["metrics"]]
            if not pairs:
                print(f"{w:18s} {m['name']:20s} no complete pairs")
                status = 1
                continue
            rev, head = [p[0] for p in pairs], [p[1] for p in pairs]
            share, word = verdict(rev, head, m)
            r, h = summary(rev), summary(head)
            print(f"{w:18s} {m['name']:20s} "
                  f"{r['median']:12.6g} [{r['q1']:10.6g}, {r['q3']:10.6g}] "
                  f"{h['median']:12.6g} [{h['q1']:10.6g}, {h['q3']:10.6g}] "
                  f"{share:5.2f}  {word}")
        print(f"{w:18s} failed runs: rev {failed['rev']} head {failed['head']}")
    return status


def write_golden(args, spec) -> int:
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    GOLDEN.mkdir(exist_ok=True)
    for w in workload_names(args, spec):
        digests = {}
        for s in seeds:
            result, stdout = run_once(w, s, seconds=0, extra=["--golden", ""])
            found = [line.split()[1] for line in stdout.splitlines()
                     if line.startswith("digest ")]
            if not result["correct"] or not found:
                print(stdout)
                print(f"error: {w} seed {s} did not pass; nothing written", file=sys.stderr)
                return 1
            digests[str(s)] = found[0]
            print(f"{w} seed {s} {found[0]}", flush=True)
        with open(GOLDEN / f"{w}.json", "w") as fh:
            json.dump({"workload": w, "digests": digests}, fh, indent=1)
            fh.write("\n")
    return 0


def main(args, spec) -> int:
    if args.write_golden:
        return write_golden(args, spec)
    if args.baseline:
        return baseline(args, spec)
    return ab(args, spec)

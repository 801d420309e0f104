#!/usr/bin/env python3
"""End-to-end benchmark of the PerfCloud reproduction.

One run measures one workload in its own process::

    python3 benchmarks/e2e/run.py --workload fig9_single_host --seed 0 \\
        --seconds 25 --trace 0

It builds the workload's inputs from ``--seed``, repeats identical
passes over them until ``--seconds`` are spent, checks every pass's
outputs (golden digest, invariants, pass-to-pass determinism) and
prints a report followed by one JSON line::

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"wall_s": {"value": 3.41, "unit": "s"}, ...}}

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` the ``per_layer`` ones: passes then alternate untraced and
traced, the traced ones wrap one function per layer boundary (see
``layers.py``) and their spans are written to
``benchmarks/e2e/out/spans-<workload>-<seed>.jsonl``.

Host times are scaled to reference speed (``layers.reference_chunk``):
each pass's times are multiplied by REF_NOMINAL_S over the median
duration of a fixed loop sampled just before and throughout that pass.
The unscaled readings are printed in the report.

Multi-run sessions live in ``multirun.py`` and are reached from here:
``--ab REV`` (interleaved A/B against another revision), ``--baseline``
(two sets of runs of this tree) and ``--write-golden`` (re-pin digests).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
GOLDEN = HERE / "golden"

#: Reference samples taken before every pass, so a run has some even if
#: the program never steps a cluster.
PRE_PASS_SAMPLES = 5


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="test-size inputs (no committed golden digests)")
    p.add_argument("--golden", default=None,
                   help="golden digest file to check against ('' checks none)")
    p.add_argument("--src", default=None,
                   help="repro source tree to measure (default: this checkout's src)")
    p.add_argument("--shard-workers", type=int, default=0,
                   help="fleet_deviating only: PerfCloud shard pool size "
                        "(an ungated experiment; the benchmark runs serially)")
    p.add_argument("--ab", metavar="REV",
                   help="A/B this tree against git revision REV")
    p.add_argument("--pairs", type=int, default=10, help="A/B pairs per workload")
    p.add_argument("--baseline", action="store_true",
                   help="write baseline_<rev>.json: two sets of runs per workload")
    p.add_argument("--runs", type=int, default=10, help="runs per baseline set")
    p.add_argument("--write-golden", action="store_true",
                   help="re-pin golden digests for --seeds")
    p.add_argument("--seeds", default="0-31", help="seed range LO-HI for --write-golden")
    p.add_argument("--workloads", default=None,
                   help="comma-separated subset for --ab/--baseline/--write-golden")
    return p.parse_args(argv)


class Pass:
    """Timings, outputs and verdict of one pass."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.total_s = self.setup_s = self.wall_s = 0.0
        #: Factor taking this pass's host times to reference speed.
        self.scale = 1.0
        self.vm_steps = 0
        self.intervals = []
        self.deployments = []
        self.error = None
        self.digest = None
        self.problems = []
        self.model = {}
        self.layers = {}
        self.spans = []

    @property
    def completed(self) -> bool:
        return self.error is None


def run_pass(workload, probe, traced: bool) -> Pass:
    from layers import Tracer

    rec = Pass(traced)
    gc.collect()
    first_sample = len(probe.reference_s)
    probe.sample_reference(PRE_PASS_SAMPLES)
    probe.reset()
    probe.sampling = not traced
    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(probe)
        else:
            tracer.install()
            try:
                result = tracer.root(workload.run, probe)
            finally:
                tracer.uninstall()
    except Exception:
        result = None
        rec.error = traceback.format_exc()
    rec.total_s = time.perf_counter() - t0 - probe.sampling_s
    rec.setup_s = probe.setup_s
    rec.wall_s = rec.total_s - probe.setup_s
    rec.scale = probe.speed_scale(first_sample)
    rec.vm_steps = probe.vm_steps
    rec.intervals = list(probe.intervals)
    rec.deployments = list(probe.deployments)
    if rec.completed:
        try:
            rec.digest, rec.problems, rec.model = workload.judge(result, rec.deployments)
        except Exception:
            rec.error = traceback.format_exc()
    if tracer is not None:
        rec.layers = tracer.layer_metrics(rec.deployments)
        rec.layers["bench.layer_coverage"] = tracer.total_self_s() / rec.total_s
        rec.spans = tracer.spans
    return rec


def load_golden(args) -> dict:
    if args.golden == "":
        return {}
    path = Path(args.golden) if args.golden else GOLDEN / f"{args.workload}.json"
    if args.golden is None and (args.tiny or not path.exists()):
        return {}
    with open(path) as fh:
        return json.load(fh).get("digests", {})


def end_to_end(timed, model: dict) -> dict:
    """BENCHMARK.json ``end_to_end`` values from the untraced passes.

    Passes repeat identical inputs, so interval ``i`` is the same work
    in every pass: the median across passes of each interval's scaled
    duration drops the intervals a burst of contention hit, and the wall
    time is the sum of those medians plus the median time spent outside
    them.
    """
    from layers import percentile

    profile = [statistics.median(col) for col in
               zip(*([d * p.scale for d in p.intervals] for p in timed))]
    outside = statistics.median([(p.wall_s - sum(p.intervals)) * p.scale for p in timed])
    wall = sum(profile) + outside
    return {
        "wall_s": wall,
        "setup_s": statistics.median([p.setup_s * p.scale for p in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "interval_p50_ms": percentile(profile, 50) * 1e3,
        "interval_p90_ms": percentile(profile, 90) * 1e3,
        "vm_steps_per_s": timed[0].vm_steps / wall,
        "throttle_precision": model["throttle_precision"],
    }


def per_layer(plain, traced, scale: float, spec: dict) -> dict:
    """BENCHMARK.json ``per_layer`` values: medians over traced passes.

    Traced passes take no in-pass reference samples, so their times are
    scaled by the whole run's.
    """
    times = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "us")}
    out = {}
    for key in traced[0].layers:
        value = statistics.median([p.layers[key] for p in traced])
        out[key] = value * scale if key in times else value
    out["bench.trace_overhead"] = (statistics.median([p.total_s for p in traced])
                                   / statistics.median([p.total_s for p in plain]))
    return out


def write_spans(path: Path, passes, origin: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for n, p in enumerate(passes):
            for sid, parent, name, t0, t1 in p.spans:
                fh.write(json.dumps({
                    "pass": n, "id": sid, "parent": parent, "name": name,
                    "start_s": t0 - origin, "end_s": t1 - origin,
                }) + "\n")


def verdicts(passes, golden) -> list:
    """Per pass, the reasons it failed (empty when it passed)."""
    first = next((p for p in passes if p.completed), None)
    out = []
    for p in passes:
        if not p.completed:
            out.append([p.error.strip().splitlines()[-1]])
            continue
        reasons = list(p.problems)
        if p.digest != first.digest:
            reasons.append(f"digest {p.digest[:12]} differs from the first pass")
        if golden is not None and p.digest != golden:
            reasons.append(f"digest {p.digest[:12]} != golden {golden[:12]}")
        out.append(reasons)
    return out


def measure(args, spec) -> int:
    from layers import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; know {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    kwargs = {"tiny": args.tiny}
    if args.shard_workers:
        if args.workload != "fleet_deviating":
            print("error: --shard-workers applies to fleet_deviating only",
                  file=sys.stderr)
            return 2
        kwargs["shard_workers"] = args.shard_workers
    workload = WORKLOADS[args.workload](args.seed, **kwargs)
    golden = load_golden(args).get(str(args.seed))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    probe = Probe(workload.interval_steps)
    probe.install()
    passes, spent = [], []
    origin = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, probe, bool(args.trace) and len(passes) % 2 == 1))
            spent.append(time.perf_counter() - t0)
            if len(passes) >= (2 if args.trace else 1) and (
                    time.perf_counter() - origin + statistics.median(spent) > seconds):
                break
    finally:
        probe.uninstall()

    reasons = verdicts(passes, golden)
    failed = sum(1 for r in reasons if r)
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"(traced {sum(p.traced for p in passes)}) failed {failed}")
    for n, (p, why) in enumerate(zip(passes, reasons)):
        print(f"pass {n} traced {int(p.traced)} total_s {p.total_s:.4f} "
              f"setup_s {p.setup_s:.4f} scale {p.scale:.4f} digest {p.digest}")
        for r in why:
            print(f"pass {n}: FAIL {r}")
        if p.error:
            print(p.error, file=sys.stderr)
    plain = [p for p in passes if p.completed and not p.traced]
    traced = [p for p in passes if p.completed and p.traced]
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": len(passes),
                          "failed": failed, "metrics": {}}))
        return 1
    first = plain[0]
    print(f"digest {first.digest} golden "
          f"{'absent' if golden is None else 'match' if golden == first.digest else 'MISMATCH'}")
    for key, value in sorted(first.model.items()):
        print(f"model {key} {value!r}")
    scale = probe.speed_scale()
    print(f"reference median {statistics.median(probe.reference_s) * 1e3:.4f} ms "
          f"over {len(probe.reference_s)} samples; run scale {scale:.4f}")
    print(f"unscaled median pass wall_s {statistics.median([p.wall_s for p in plain]):.4f} "
          f"setup_s {statistics.median([p.setup_s for p in plain]):.4f}")

    if args.trace:
        values = per_layer(plain, traced, scale, spec)
        wanted = spec["per_layer"]
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", traced, origin)
    else:
        values = end_to_end(plain, first.model)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.ab or args.baseline or args.write_golden:
        import multirun

        return multirun.main(args, spec)
    if not args.workload:
        print("error: --workload is required", file=sys.stderr)
        return 2
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())

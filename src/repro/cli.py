"""Command-line interface: reproduce any paper figure from the shell.

::

    python -m repro list                 # what can be reproduced
    python -m repro fig3                 # run one figure, print its series
    python -m repro fig9 --seed 11
    python -m repro fig11 --full-scale   # paper-size dimensions (slow)
    python -m repro sweep --workers 4    # β/γ closed-loop sensitivity grid
    python -m repro chaos                # Fig. 9 under fault injection
    python -m repro chaos --harness      # kill/freeze/corrupt the harness
    python -m repro bench --compare      # perf suite vs committed baseline
    python -m repro scenarios            # scored acceptance corpus
    python -m repro scenarios --quick    # the quick-tagged subset
    python -m repro obs export           # telemetry exposition of a run
    python -m repro obs export --report  # ...its incident report
    python -m repro demo                 # the quickstart scenario

Each figure command accepts ``--seed`` and prints the same tables the
benchmark harness prints; ``--json PATH`` additionally dumps the raw
result object for downstream plotting.  Commands built on repeated
independent simulations (``sweep``, ``fig1``, ``fig2``, ``fig9``,
``fig11``, ``fig12``) also take ``--workers N`` (process-parallel
fan-out; 0 = serial) and ``--cache-dir PATH`` (memoize per-run results
on disk; see docs/PARALLEL.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable, Dict

from repro.experiments import figures, sweeps
from repro.experiments.report import ProgressReporter, render_table


__all__ = ["main"]


def _parallel_kwargs(a: argparse.Namespace, label: str) -> dict:
    """Fan-out kwargs for parallel-capable commands (progress on stderr)."""
    return dict(workers=a.workers, cache_dir=a.cache_dir,
                progress=ProgressReporter(label))


#: name -> (runner factory, description, supports_full_scale, supports_parallel)
_FIGURES: Dict[str, tuple] = {
    "fig1": (lambda a: figures.fig1(seeds=(a.seed, a.seed + 4),
                                    **_parallel_kwargs(a, "fig1")),
             "I/O interference vs. fio cap (Fig. 1)", False, True),
    "fig2": (lambda a: figures.fig2(seeds=(a.seed, a.seed + 4),
                                    **_parallel_kwargs(a, "fig2")),
             "STREAM (memory) interference (Fig. 2)", False, True),
    "fig3": (lambda a: figures.fig3(seed=a.seed),
             "iowait-ratio deviation signal (Fig. 3)", False, False),
    "fig4": (lambda a: figures.fig4(seed=a.seed),
             "CPI deviation signal (Fig. 4)", False, False),
    "fig5": (lambda a: figures.fig5(seed=a.seed),
             "I/O antagonist identification (Fig. 5)", False, False),
    "fig6": (lambda a: figures.fig6(seed=a.seed),
             "CPU antagonist identification (Fig. 6)", False, False),
    "fig7": (lambda a: figures.fig7(),
             "CUBIC growth regions (Fig. 7)", False, False),
    "fig9": (lambda a: figures.fig9(seeds=(a.seed, a.seed + 4),
                                    **_parallel_kwargs(a, "fig9")),
             "dynamic control: default/static/PerfCloud (Fig. 9)", False, True),
    "fig10": (lambda a: figures.fig10(seed=a.seed),
              "cap timelines under PerfCloud (Fig. 10)", False, False),
    "fig11": (
        lambda a: figures.fig11(
            seed=a.seed,
            **(dict(num_hosts=15, num_workers=150, num_mr_jobs=100,
                    num_spark_jobs=100, num_antagonist_pairs=15,
                    horizon=40000.0) if a.full_scale else {}),
            **_parallel_kwargs(a, "fig11"),
        ),
        "large scale vs. LATE/Dolly (Fig. 11)", True, True),
    "fig12": (
        lambda a: figures.fig12(
            **(dict(repeats=30, num_hosts=15, num_workers=150,
                    num_antagonist_pairs=15) if a.full_scale
               else dict(repeats=8, num_hosts=4, num_workers=24, tasks=20,
                         num_antagonist_pairs=2)),
            **_parallel_kwargs(a, "fig12"),
        ),
        "variability across repeats (Fig. 12)", True, True),
}


def _csv_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _csv_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _to_jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return None if obj != obj else obj  # NaN -> null
    return obj


def _print_result(name: str, result: Any) -> None:
    """Generic, readable rendering of a figure result dataclass."""
    print(f"== {name} ==")
    if dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            if isinstance(value, dict) and value and not any(
                isinstance(v, (list, dict)) for v in value.values()
            ):
                rows = [[k, v] for k, v in value.items()]
                print(render_table([f.name, "value"], rows))
            elif isinstance(value, (int, float, str, bool)):
                print(f"{f.name}: {value}")
            else:
                preview = str(value)
                if len(preview) > 300:
                    preview = preview[:300] + " ..."
                print(f"{f.name}: {preview}")
    else:
        print(result)


def _run_demo(args: argparse.Namespace) -> int:
    from repro import (
        CloudManager, Cluster, FioRandomRead, HdfsCluster, JobTracker,
        PerfCloud, Priority, Simulator, teragen, terasort,
    )

    for deploy in (False, True):
        sim = Simulator(dt=1.0, seed=args.seed)
        cluster = Cluster(sim)
        cluster.add_host("server0")
        cloud = CloudManager(cluster)
        workers = cloud.boot_many("hdp", 6, priority=Priority.HIGH,
                                  app_id="hadoop")
        hdfs = HdfsCluster([w.name for w in workers], sim.rng.stream("hdfs"))
        jt = JobTracker(sim, workers, hdfs)
        vm = cloud.boot("noisy")
        vm.attach_workload(FioRandomRead())
        if deploy:
            PerfCloud(sim, cloud)
        job = jt.submit(terasort(), teragen(640), num_reducers=10)
        sim.run(2000)
        label = "with PerfCloud" if deploy else "default       "
        print(f"{label}: terasort JCT = {job.completion_time:.0f}s")
    return 0


def _run_harness_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.harness_chaos import (
        default_harness_plan, run_harness_chaos,
    )

    plan = default_harness_plan(seed=args.seed)
    result = run_harness_chaos(plan, workers=args.workers or 4)
    print(f"== harness chaos (seed {args.seed}) ==")
    print(f"tasks: {plan.n_tasks}  kills: {plan.kills}  "
          f"freezes: {plan.sigstops}  stalls: {plan.stalls}  "
          f"raises: {plan.raises_}  corrupted cache entries: {plan.corrupt}")
    stats = result.chaos_report.supervisor
    print(render_table(
        ["supervision counter", "value"],
        [[k, v] for k, v in stats.to_dict().items()],
    ))
    print(render_table(
        ["task", "status"],
        [[i, s] for i, s in sorted(result.statuses.items())],
    ))
    print(f"merged results byte-identical to clean serial run: "
          f"{result.identical}")
    print(f"cache-corruption recovery (recomputed exactly the corrupted "
          f"tasks): {result.recovered_from_corruption}")
    print(f"trace digest {result.digest}  elapsed {result.elapsed:.1f}s")
    verdict = "SURVIVED" if result.survived else "DIED"
    print(f"verdict: {verdict}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.summary(), fh, indent=2)
        print(f"\nraw result written to {args.json}")
    return 0 if result.survived else 1


def _run_chaos(args: argparse.Namespace) -> int:
    if args.harness:
        return _run_harness_chaos(args)
    from repro.experiments.chaos import (
        ChaosScenario, default_fault_plan, run_chaos,
    )

    plan = default_fault_plan(
        call_failure_p=args.call_failure_p,
        connection_failure_p=args.connection_failure_p,
        freeze_p=args.freeze_p,
        counter_reset_period_s=args.counter_reset_period or None,
        latency_p=args.latency_p,
        crash_vm=args.crash_vm or None,
        crash_at_s=args.crash_at,
        restart_after_s=args.restart_after,
    )
    scenario = ChaosScenario(
        seed=args.seed, size_mb=args.size_mb, horizon=args.horizon, plan=plan,
    )
    result = run_chaos(scenario)
    print(f"== chaos (seed {args.seed}) ==")
    print(f"plan: {plan.describe()}")
    jct = "-" if result.jct is None else f"{result.jct:.0f}s"
    print(f"job completed: {result.completed} (JCT {jct})  "
          f"agents alive: {result.agents_alive}")
    print(render_table(
        ["survival counter", "value"],
        [[k, v] for k, v in result.survival.items()],
    ))
    print(render_table(
        ["injected fault", "count"],
        [[k, v] for k, v in result.fault_counts.items()],
    ))
    print(f"fault trace: {result.trace_len} events, "
          f"digest {result.trace_digest[:16]}")
    verdict = "SURVIVED" if result.survived else "DIED"
    print(f"verdict: {verdict}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(_to_jsonable(result), fh, indent=2)
        print(f"\nraw result written to {args.json}")
    return 0 if result.survived else 1


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        filter_scenarios, load_corpus, run_corpus, scenario_hash,
    )
    from repro.scenarios.spec import ScenarioError

    try:
        specs = load_corpus(args.dir)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    selectors = list(args.filter)
    if args.quick:
        selectors.append("tag:quick")
    specs = filter_scenarios(specs, selectors)
    if not specs:
        print("no scenarios match the given filters", file=sys.stderr)
        return 2
    if args.list:
        rows = [[s.name, ",".join(s.tags), s.world.seed,
                 scenario_hash(s)[:12], len(s.expect)]
                for s in specs]
        print(render_table(["scenario", "tags", "seed", "hash", "checks"],
                           rows, title="scenario corpus"))
        return 0
    if args.resume and not args.cache_dir:
        print("error: --resume requires --cache-dir (finished tasks replay "
              "from the result cache)", file=sys.stderr)
        return 2
    result = run_corpus(specs, workers=args.workers, cache_dir=args.cache_dir,
                        progress=ProgressReporter("scenarios"),
                        supervise=args.supervised, resume=args.resume)
    print(result.render())
    if args.resume:
        print(f"resume manifest {args.resume}: {result.resumed} tasks "
              f"already complete at start")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_jsonable(), fh, indent=2)
        print(f"\nscored matrix written to {args.json}")
    return 0 if result.all_passed else 1


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="process-parallel fan-out of independent runs "
                        "(0 = in-process serial; default)")
    p.add_argument("--cache-dir", metavar="PATH", default=None,
                   help="memoize per-run results on disk; re-runs skip "
                        "already-computed points")


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--supervised", action="store_true",
                   help="run under the supervised policy (per-task "
                        "timeouts, retries, worker respawn — see "
                        "docs/ROBUSTNESS.md)")
    p.add_argument("--resume", metavar="MANIFEST", default=None,
                   help="record completed tasks in MANIFEST and, on "
                        "re-invocation after a crash, re-execute zero "
                        "finished tasks (requires --cache-dir)")


def _run_obs(args: argparse.Namespace) -> int:
    """Run a telemetry-on mitigation scenario and export what it saw."""
    from repro import teragen, terasort
    from repro.experiments.harness import TestbedConfig, build_testbed, run_until
    from repro.obs import Telemetry, render_text, snapshot

    telemetry = Telemetry(ledger=True, spans=True)
    bed = build_testbed(TestbedConfig(
        seed=args.seed, num_workers=6, framework="mapreduce",
        antagonists=(("fio", None),),
    ))
    pc = bed.deploy_perfcloud(telemetry=telemetry)
    job = bed.jobtracker.submit(terasort(), teragen(args.size_mb),
                                num_reducers=10)
    run_until(bed.sim, lambda: job.completion_time is not None, horizon=4000)
    # Drain window: caps release and open incidents resolve after the job.
    bed.run(120.0)
    families = snapshot(pc, telemetry=telemetry)
    pc.close()

    if args.spans:
        telemetry.spans.export_jsonl(args.spans)
        print(f"{len(telemetry.spans)} spans written to {args.spans}",
              file=sys.stderr)
    if args.ledger:
        payload = json.dumps(telemetry.ledger.to_jsonable(), indent=2)
        if args.ledger == "-":
            print(payload)
        else:
            with open(args.ledger, "w") as fh:
                fh.write(payload + "\n")
            print(f"incident ledger written to {args.ledger}",
                  file=sys.stderr)
    if args.report:
        print(telemetry.ledger.render())
        return 0
    text = render_text(families)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"exposition written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if args.analytic:
        points = sweeps.analytic_sweep(betas=args.betas, gammas=args.gammas)
    else:
        if args.resume and not args.cache_dir:
            print("error: --resume requires --cache-dir (finished points "
                  "replay from the result cache)", file=sys.stderr)
            return 2
        run_stats: dict = {}
        points = sweeps.closed_loop_sweep(
            betas=args.betas, gammas=args.gammas, seeds=args.seeds,
            size_mb=args.size_mb, workers=args.workers,
            cache_dir=args.cache_dir, progress=ProgressReporter("sweep"),
            supervise=args.supervised, resume=args.resume, stats=run_stats,
        )
    headers = ["beta", "gamma", "K", "depth", "victim JCT", "ant ops/s"]
    rows = [
        [p.beta, p.gamma, p.recovery_intervals, p.decrease_depth,
         "-" if p.victim_jct is None else p.victim_jct,
         "-" if p.antagonist_ops_per_s is None else p.antagonist_ops_per_s]
        for p in points
    ]
    print(render_table(headers, rows, title="β/γ sensitivity sweep"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([_to_jsonable(p) for p in points], fh, indent=2)
        print(f"\nraw result written to {args.json}")
    salvaged = 0 if args.analytic else run_stats.get("salvaged", 0)
    if salvaged:
        print(f"error: {salvaged} sweep point(s) salvaged — every "
              "supervised attempt failed; affected grid cells show NaN",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PerfCloud reproduction — run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list reproducible figures")
    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument("--seed", type=int, default=7)
    sweep = sub.add_parser(
        "sweep",
        help="β/γ sensitivity sweep (closed-loop grid, or --analytic)",
    )
    sweep.add_argument("--betas", type=_csv_floats, default=(0.5, 0.65, 0.8),
                       metavar="B1,B2,...", help="β grid (comma-separated)")
    sweep.add_argument("--gammas", type=_csv_floats,
                       default=(0.001, 0.005, 0.02),
                       metavar="G1,G2,...", help="γ grid (comma-separated)")
    sweep.add_argument("--seeds", type=_csv_ints, default=(3, 7),
                       metavar="S1,S2,...", help="seeds per grid point")
    sweep.add_argument("--size-mb", type=float, default=960.0,
                       help="terasort input size per run")
    sweep.add_argument("--analytic", action="store_true",
                       help="analytic K/depth only — no simulation")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="dump the raw sweep points as JSON")
    _add_parallel_args(sweep)
    _add_resilience_args(sweep)
    chaos = sub.add_parser(
        "chaos",
        help="Fig. 9 mitigation scenario under fault injection "
             "(exit 0 = survived)",
    )
    chaos.add_argument("--harness", action="store_true",
                       help="attack the harness instead of the simulated "
                            "control plane: worker kills/freezes/stalls + "
                            "cache corruption under the supervised policy "
                            "(exit 0 = merged results byte-identical to a "
                            "clean serial run)")
    chaos.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker pool size for --harness (default 4)")
    chaos.add_argument("--seed", type=int, default=3)
    chaos.add_argument("--size-mb", type=float, default=640.0,
                       help="terasort input size")
    chaos.add_argument("--horizon", type=float, default=8000.0,
                       help="give up if the job is not done by then")
    chaos.add_argument("--call-failure-p", type=float, default=0.1,
                       metavar="P", help="per-call LibvirtError probability")
    chaos.add_argument("--connection-failure-p", type=float, default=0.02,
                       metavar="P", help="listAllDomains failure probability")
    chaos.add_argument("--freeze-p", type=float, default=0.05, metavar="P",
                       help="per-sample stale-counter probability")
    chaos.add_argument("--counter-reset-period", type=float, default=120.0,
                       metavar="S", help="cumulative-counter reset period "
                                         "(0 disables)")
    chaos.add_argument("--latency-p", type=float, default=0.1, metavar="P",
                       help="slow-actuation probability")
    chaos.add_argument("--crash-vm", default="fio",
                       help="VM to crash mid-run ('' disables)")
    chaos.add_argument("--crash-at", type=float, default=60.0, metavar="S")
    chaos.add_argument("--restart-after", type=float, default=30.0,
                       metavar="S")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="dump the raw result as JSON")
    scenarios = sub.add_parser(
        "scenarios",
        help="run the scored acceptance corpus (exit 0 = all scenarios pass)",
    )
    scenarios.add_argument("--filter", action="append", default=[],
                           metavar="TOKEN",
                           help="keep scenarios whose name contains TOKEN, "
                                "or 'tag:<tag>' for an exact tag match "
                                "(repeatable; any match keeps)")
    scenarios.add_argument("--quick", action="store_true",
                           help="only the quick-tagged subset "
                                "(same as --filter tag:quick)")
    scenarios.add_argument("--list", action="store_true",
                           help="list matching scenarios without running")
    scenarios.add_argument("--dir", metavar="PATH", default=None,
                           help="corpus directory (default: <repo>/scenarios)")
    scenarios.add_argument("--json", metavar="PATH", default=None,
                           help="write the scored matrix as JSON")
    _add_parallel_args(scenarios)
    _add_resilience_args(scenarios)
    obs = sub.add_parser(
        "obs",
        help="run a telemetry-on mitigation scenario and export its "
             "metrics exposition / incident ledger / control-interval "
             "spans (see docs/OBSERVABILITY.md)",
    )
    obs.add_argument("action", nargs="?", choices=("export",),
                     default="export",
                     help="what to do (only 'export' for now)")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--size-mb", type=float, default=640.0,
                     help="terasort input size for the scenario run")
    obs.add_argument("--out", metavar="PATH", default=None,
                     help="write the Prometheus-style text exposition to "
                          "PATH instead of stdout")
    obs.add_argument("--ledger", metavar="PATH", nargs="?", const="-",
                     default=None,
                     help="also dump the incident ledger as JSON "
                          "(PATH, or stdout if no PATH given)")
    obs.add_argument("--spans", metavar="PATH", default=None,
                     help="also export control-interval spans as JSONL")
    obs.add_argument("--report", action="store_true",
                     help="print the human-readable incident report "
                          "instead of the exposition")
    bench = sub.add_parser(
        "bench",
        help="hot-path benchmark suite + performance-regression gate "
             "(see docs/PERFORMANCE.md)",
    )
    bench.add_argument("--micro-only", action="store_true",
                       help="skip the macro (end-to-end scenario) layer")
    bench.add_argument("--quick", action="store_true",
                       help="fastest useful signal: micro suite only, "
                            "single repetition (equivalent to "
                            "--micro-only --repeat 1)")
    bench.add_argument("--repeat", type=int, default=3, metavar="N",
                       help="micro-benchmark repetitions (best-of; default 3)")
    bench.add_argument("--full-macro", action="store_true",
                       help="run fig11 at its figure-default dimensions (slow)")
    bench.add_argument("--profile", action="store_true",
                       help="additionally run the macro cases under cProfile "
                            "and write a top-N cumulative report next to the "
                            "result file")
    bench.add_argument("--profile-top", type=int, default=30, metavar="N",
                       help="rows per section in the --profile report "
                            "(default 30)")
    bench.add_argument("--out", metavar="PATH", default=None,
                       help="result file (default BENCH_<rev>.json)")
    bench.add_argument("--compare", metavar="BASELINE", nargs="?",
                       const="__default__", default=None,
                       help="compare against a baseline result "
                            "(default: the committed benchmarks/perf/baseline.json)")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero if any gated metric regressed "
                            "(implies --compare)")
    bench.add_argument("--strict", action="store_true",
                       help="also gate machine-dependent absolute metrics "
                            "(same-machine comparisons only)")
    bench.add_argument("--tolerance", type=float, default=0.30, metavar="T",
                       help="allowed relative regression (default 0.30)")
    for name, (_, desc, supports_full, supports_parallel) in _FIGURES.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--json", metavar="PATH", default=None,
                       help="dump the raw result as JSON")
        if supports_full:
            p.add_argument("--full-scale", action="store_true",
                           help="use the paper's exact dimensions (slow)")
        if supports_parallel:
            _add_parallel_args(p)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        rows = [[n, d] for n, (_, d, _, _) in _FIGURES.items()]
        print(render_table(["command", "reproduces"], rows))
        print("\nalso: `demo` — the quickstart scenario;"
              " `sweep` — the β/γ sensitivity grid;"
              " `chaos` — the mitigation scenario under fault injection;"
              " `bench` — the performance-regression suite;"
              " `scenarios` — the scored acceptance corpus;"
              " `obs` — telemetry exposition / incident ledger export")
        return 0
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "scenarios":
        return _run_scenarios(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "bench":
        from repro.bench.runner import main as bench_main

        args.compare_default = args.compare == "__default__"
        if args.compare_default:
            args.compare = None
        return bench_main(args)
    runner, _, _, _ = _FIGURES[args.command]
    result = runner(args)
    _print_result(args.command, result)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            json.dump(_to_jsonable(result), fh, indent=2)
        print(f"\nraw result written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

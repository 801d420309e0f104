"""One runner per figure of the paper's evaluation.

Every ``figN`` function builds the scenario from §II–§IV, runs it, and
returns a plain-data result whose fields mirror the figure's series.  The
benchmarks under ``benchmarks/`` call these and print the series next to
the paper's reported values (see EXPERIMENTS.md).

Scaling: defaults complete in seconds-to-minutes.  Where the paper's
dimensions are larger (152 nodes / 15 servers / 100+100 jobs / 30
repeats), runners take explicit size parameters so full scale is one
argument away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PerfCloudConfig
from repro.core.cubic import CubicController
from repro.core.policies import StaticCapPolicy
from repro.experiments.cache import ResultCache
from repro.experiments.harness import Testbed, TestbedConfig, build_testbed
from repro.experiments.parallel import Progress, run_many
from repro.frameworks.cloning import DollyCloner
from repro.frameworks.jobs import Job
from repro.frameworks.speculation import LateSpeculation, NoSpeculation
from repro.metrics.correlation import MissingPolicy, aligned_pearson
from repro.metrics.stats import normalize_by_peak, percentile_summary
from repro.workloads.datagen import sparkbench_synthetic, teragen, wikipedia
from repro.workloads.mix import facebook_like_mix
from repro.workloads.puma import PUMA_BENCHMARKS
from repro.workloads.sparkbench import SPARKBENCH_BENCHMARKS

__all__ = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig9", "fig10", "fig11", "fig12",
]

#: Unthrottled fio throughput on the reference device, bytes/s — the
#: basis for "X % I/O cap" in Figs. 1 and 9 (1500 IOPS * 4 KiB).
FIO_FULL_BPS = 1500 * 4096.0

_MR_DEFAULT = ("terasort", "wordcount", "inverted-index")
_SPARK_DEFAULT = ("logistic-regression", "svm", "page-rank")


# --------------------------------------------------------------------------
# shared machinery
# --------------------------------------------------------------------------

def _submit(testbed: Testbed, kind: str, bench: str, size_mb: float,
            num_reducers: Optional[int] = None) -> Job:
    """Submit one benchmark job on the testbed's framework."""
    if kind == "mapreduce":
        spec = PUMA_BENCHMARKS[bench]()
        dataset = teragen(size_mb) if bench == "terasort" else wikipedia(size_mb)
        reducers = num_reducers if num_reducers is not None else dataset.num_blocks
        return testbed.jobtracker.submit(spec, dataset, num_reducers=reducers)
    spec = SPARKBENCH_BENCHMARKS[bench]()
    return testbed.spark.submit(spec, sparkbench_synthetic(bench, size_mb))


def _run_job(
    kind: str,
    bench: str,
    *,
    seed: int,
    size_mb: float,
    antagonists: Sequence[Tuple[str, Optional[int]]] = (),
    num_workers: int = 6,
    fio_cap_frac: Optional[float] = None,
    horizon: float = 8000.0,
) -> Tuple[Testbed, Job]:
    """One job on a one-host testbed, optionally with capped antagonists."""
    framework = "mapreduce" if kind == "mapreduce" else "spark"
    testbed = build_testbed(
        TestbedConfig(
            seed=seed,
            num_workers=num_workers,
            framework=framework,
            antagonists=tuple(antagonists),
        )
    )
    if fio_cap_frac is not None and "fio" in testbed.antagonist_vms:
        host = testbed.antagonist_vms["fio"].host_name
        dom = testbed.cloud.connection(host).lookupByName("fio")
        dom.setBlockIoTune("vda", {"total_bytes_sec": fio_cap_frac * FIO_FULL_BPS})
    job = _submit(testbed, kind, bench, size_mb)
    from repro.experiments.harness import run_until

    if not run_until(testbed.sim, lambda: job.completion_time is not None, horizon):
        raise RuntimeError(
            f"{bench} did not finish within {horizon}s (seed={seed})"
        )
    return testbed, job


# --------------------------------------------------------------------------
# parallel fan-out machinery
#
# Each figure's unit of repetition (one job at one seed, one fig-9 scheme
# run, one fig-11 mix...) is captured as a frozen, picklable task
# dataclass with a module-level runner returning plain data, so the whole
# repetition set can be dispatched through ``run_many`` — serially
# (workers=0, the default: byte-identical to the historical loops),
# across a process pool, and/or against an on-disk result cache.
# --------------------------------------------------------------------------

def _fan_out(tasks, runner, *, workers=0, cache_dir=None, progress=None):
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return run_many(tasks, runner, workers=workers, cache=cache,
                    progress=progress)


@dataclass(frozen=True)
class _JobTask:
    """One benchmark job on a one-host testbed (figs. 1 and 2)."""

    kind: str
    bench: str
    seed: int
    size_mb: float
    antagonists: Tuple[Tuple[str, Optional[int]], ...] = ()
    fio_cap_frac: Optional[float] = None
    #: Also report the fio antagonist's mean IOPS over the run.
    collect_fio: bool = False


def _job_task_runner(task: _JobTask) -> Tuple[float, Optional[float]]:
    testbed, job = _run_job(
        task.kind, task.bench, seed=task.seed, size_mb=task.size_mb,
        antagonists=task.antagonists, fio_cap_frac=task.fio_cap_frac,
    )
    iops = None
    if task.collect_fio and "fio" in testbed.antagonist_drivers:
        drv = testbed.antagonist_drivers["fio"]
        iops = drv.iops.total / testbed.sim.now
    return job.completion_time, iops


# --------------------------------------------------------------------------
# Fig. 1 — I/O interference vs. cap on the fio antagonist
# --------------------------------------------------------------------------

@dataclass
class Fig1Result:
    """Normalized JCT per (benchmark, fio cap) and normalized fio IOPS."""

    caps: List[Optional[float]]
    #: benchmark -> list of JCT / JCT_alone, aligned with ``caps``.
    mr_normalized_jct: Dict[str, List[float]]
    spark_normalized_jct: Dict[str, List[float]]
    #: fio IOPS under each cap / unthrottled IOPS, aligned with ``caps``.
    fio_normalized_iops: List[float]
    #: Headline anchors (Fig. 1c): degradation with uncapped fio.
    terasort_uncapped_degradation: float = 0.0
    logreg_uncapped_degradation: float = 0.0


def fig1(
    seeds: Sequence[int] = (3, 7, 11),
    *,
    mr_benchmarks: Sequence[str] = _MR_DEFAULT,
    spark_benchmarks: Sequence[str] = _SPARK_DEFAULT,
    caps: Sequence[Optional[float]] = (None, 1.0, 0.5, 0.2, 0.1),
    size_mb: float = 640.0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
) -> Fig1Result:
    """Job performance vs. I/O cap applied to a colocated fio VM.

    ``caps`` entries: None = fio absent (the normalization baseline);
    1.0 = colocated and uncapped; fractions = static blkio caps relative
    to fio's solo throughput.

    Every (benchmark, cap, seed) job is independent; ``workers``/
    ``cache_dir`` fan them out through the parallel engine (0 = serial).
    """
    mr_out: Dict[str, List[float]] = {}
    spark_out: Dict[str, List[float]] = {}
    fio_iops: List[float] = []

    def make_task(kind, bench, cap, seed) -> _JobTask:
        return _JobTask(
            kind=kind, bench=bench, seed=seed, size_mb=size_mb,
            antagonists=() if cap is None else (("fio", None),),
            fio_cap_frac=None if cap in (None, 1.0) else cap,
            collect_fio=cap is not None,
        )

    groups = [(kind, bench, cap)
              for kind, benchmarks in (("mapreduce", mr_benchmarks),
                                       ("spark", spark_benchmarks))
              for bench in benchmarks for cap in caps]
    tasks = [make_task(kind, bench, cap, s)
             for kind, bench, cap in groups for s in seeds]
    outcomes = iter(_fan_out(tasks, _job_task_runner, workers=workers,
                             cache_dir=cache_dir, progress=progress))

    def jct(cap):
        total = 0.0
        iops_acc = 0.0
        for _ in seeds:
            completion_time, iops = next(outcomes)
            total += completion_time
            if cap is not None:
                iops_acc += iops
        return total / len(seeds), (iops_acc / len(seeds) if cap is not None else None)

    fio_rates: Dict[Optional[float], List[float]] = {c: [] for c in caps}
    for kind, out in (("mapreduce", mr_out), ("spark", spark_out)):
        benchmarks = mr_benchmarks if kind == "mapreduce" else spark_benchmarks
        for bench in benchmarks:
            series = []
            base = None
            for cap in caps:
                mean_jct, mean_iops = jct(cap)
                if cap is None:
                    base = mean_jct
                series.append(mean_jct)
                if mean_iops is not None:
                    fio_rates[cap].append(mean_iops)
            out[bench] = [v / base for v in series]

    full = np.mean(fio_rates[1.0]) if fio_rates.get(1.0) else 1.0
    for cap in caps:
        vals = fio_rates.get(cap)
        fio_iops.append(float(np.mean(vals) / full) if vals else float("nan"))

    uncapped = caps.index(1.0) if 1.0 in caps else 1
    return Fig1Result(
        caps=list(caps),
        mr_normalized_jct=mr_out,
        spark_normalized_jct=spark_out,
        fio_normalized_iops=fio_iops,
        terasort_uncapped_degradation=(
            mr_out["terasort"][uncapped] - 1.0 if "terasort" in mr_out else 0.0
        ),
        logreg_uncapped_degradation=(
            spark_out["logistic-regression"][uncapped] - 1.0
            if "logistic-regression" in spark_out
            else 0.0
        ),
    )


# --------------------------------------------------------------------------
# Fig. 2 — memory-intensive (STREAM) interference
# --------------------------------------------------------------------------

@dataclass
class Fig2Result:
    """Normalized JCT per benchmark with a colocated STREAM VM."""

    mr_normalized_jct: Dict[str, float]
    spark_normalized_jct: Dict[str, float]

    @property
    def spark_hit_harder(self) -> bool:
        """The paper's qualitative claim (§II-C)."""
        return (
            np.mean(list(self.spark_normalized_jct.values()))
            > np.mean(list(self.mr_normalized_jct.values()))
        )


def fig2(
    seeds: Sequence[int] = (3, 7, 11),
    *,
    mr_benchmarks: Sequence[str] = _MR_DEFAULT,
    spark_benchmarks: Sequence[str] = _SPARK_DEFAULT,
    size_mb: float = 640.0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
) -> Fig2Result:
    """Degradation from a colocated memory-intensive STREAM VM."""
    tasks = [
        _JobTask(kind=kind, bench=bench, seed=s, size_mb=size_mb,
                 antagonists=ants)
        for kind, benchmarks in (("mapreduce", mr_benchmarks),
                                 ("spark", spark_benchmarks))
        for bench in benchmarks
        for ants in ((), (("stream", None),))
        for s in seeds
    ]
    outcomes = iter(_fan_out(tasks, _job_task_runner, workers=workers,
                             cache_dir=cache_dir, progress=progress))

    def mean_jct() -> float:
        return float(np.mean([next(outcomes)[0] for _ in seeds]))

    mr_out = {}
    spark_out = {}
    for kind, out in (("mapreduce", mr_out), ("spark", spark_out)):
        benchmarks = mr_benchmarks if kind == "mapreduce" else spark_benchmarks
        for bench in benchmarks:
            alone = mean_jct()
            coloc = mean_jct()
            out[bench] = coloc / alone
    return Fig2Result(mr_normalized_jct=mr_out, spark_normalized_jct=spark_out)


# --------------------------------------------------------------------------
# Figs. 3/4 — detection signals alone vs. colocated
# --------------------------------------------------------------------------

@dataclass
class DeviationSignalResult:
    """Deviation time series for one benchmark, alone vs. colocated."""

    metric: str  # "io" | "cpi"
    threshold: float
    alone_series: List[Tuple[float, float]]
    coloc_series: List[Tuple[float, float]]
    alone_peak: float
    coloc_peak: float

    @property
    def peak_ratio(self) -> float:
        """Contended peak / healthy peak (the paper quotes ~8.2x)."""
        if self.alone_peak <= 0:
            return float("inf")
        return self.coloc_peak / self.alone_peak

    @property
    def alone_below_threshold(self) -> bool:
        """No false positive on the healthy baseline."""
        return self.alone_peak <= self.threshold

    @property
    def coloc_exceeds_threshold(self) -> bool:
        """Contention detected when the antagonist is present."""
        return self.coloc_peak > self.threshold


def _deviation_signal(
    kind: str,
    bench: str,
    metric: str,
    antagonist: str,
    seed: int,
    size_mb: float,
) -> DeviationSignalResult:
    cfg_off = PerfCloudConfig(h_io=1e9, h_cpi=1e9)  # monitor, never actuate

    def one(ants) -> Tuple[List[Tuple[float, float]], float]:
        framework = "mapreduce" if kind == "mapreduce" else "spark"
        testbed = build_testbed(
            TestbedConfig(seed=seed, num_workers=6, framework=framework,
                          antagonists=ants)
        )
        testbed.deploy_perfcloud(cfg_off)
        job = _submit(testbed, kind, bench, size_mb)
        from repro.experiments.harness import run_until

        run_until(testbed.sim, lambda: job.completion_time is not None, 8000)
        testbed.run(10)  # a couple more samples past completion
        nm = testbed.node_manager()
        sig = nm.detector.signal(testbed.config.app_id, metric)
        end = (job.finish_time or testbed.sim.now) + 5
        series = [(t, v) for t, v in sig if t <= end]
        peak = max((v for _, v in series), default=0.0)
        testbed.perfcloud.close()
        return series, peak

    alone_series, alone_peak = one(())
    coloc_series, coloc_peak = one(((antagonist, None),))
    threshold = PerfCloudConfig().h_io if metric == "io" else PerfCloudConfig().h_cpi
    return DeviationSignalResult(
        metric=metric,
        threshold=threshold,
        alone_series=alone_series,
        coloc_series=coloc_series,
        alone_peak=alone_peak,
        coloc_peak=coloc_peak,
    )


@dataclass
class Fig3Result:
    """Iowait-ratio deviation signals: terasort plus other benchmarks."""

    terasort: DeviationSignalResult
    others: Dict[str, DeviationSignalResult]


def fig3(
    seed: int = 7,
    *,
    benchmarks: Sequence[str] = _MR_DEFAULT,
    size_mb: float = 640.0,
) -> Fig3Result:
    """Std of block-iowait ratio, alone vs. +fio (threshold 10)."""
    results = {
        b: _deviation_signal("mapreduce", b, "io", "fio", seed, size_mb)
        for b in benchmarks
    }
    terasort_res = results.pop("terasort", next(iter(results.values())))
    return Fig3Result(terasort=terasort_res, others=results)


@dataclass
class Fig4Result:
    """CPI deviation signals per benchmark, alone vs. +STREAM."""

    per_benchmark: Dict[str, DeviationSignalResult]

    @property
    def all_alone_below_one(self) -> bool:
        """Healthy CPI deviation below the threshold for every benchmark."""
        return all(r.alone_peak < 1.0 for r in self.per_benchmark.values())

    @property
    def all_coloc_above_one(self) -> bool:
        """Contended CPI deviation above the threshold for every benchmark."""
        return all(r.coloc_peak > 1.0 for r in self.per_benchmark.values())


def fig4(
    seed: int = 7,
    *,
    mr_benchmarks: Sequence[str] = ("terasort", "wordcount"),
    spark_benchmarks: Sequence[str] = ("logistic-regression", "svm"),
    size_mb: float = 640.0,
) -> Fig4Result:
    """Std of CPI, alone vs. +STREAM (threshold 1)."""
    out = {}
    for b in mr_benchmarks:
        out[f"mr/{b}"] = _deviation_signal("mapreduce", b, "cpi", "stream", seed, size_mb)
    for b in spark_benchmarks:
        out[f"spark/{b}"] = _deviation_signal("spark", b, "cpi", "stream", seed, size_mb)
    return Fig4Result(per_benchmark=out)


# --------------------------------------------------------------------------
# Figs. 5/6 — antagonist identification
# --------------------------------------------------------------------------

@dataclass
class IdentificationResultData:
    """Correlation study for one victim/suspect-set scenario."""

    #: Normalized victim deviation series.
    victim_series: List[Tuple[float, float]]
    #: suspect -> normalized usage series.
    suspect_series: Dict[str, List[Tuple[float, float]]]
    #: suspect -> correlation at full window.
    correlations: Dict[str, float]
    #: suspect -> {window -> correlation} (Figs. 5c/6c).
    correlations_by_window: Dict[str, Dict[int, float]]
    #: Suspects above the 0.8 threshold at full window.
    identified: List[str] = field(default_factory=list)


def _identification_study(
    kind: str,
    bench: str,
    metric: str,
    suspect_metric: str,
    antagonists: Sequence[Tuple[str, Optional[int]]],
    true_antagonists: Sequence[str],
    seed: int,
    size_mb: float,
    windows: Sequence[int] = (3, 5, 8, 12),
    missing_policy: MissingPolicy = MissingPolicy.ZERO,
) -> IdentificationResultData:
    framework = "mapreduce" if kind == "mapreduce" else "spark"
    testbed = build_testbed(
        TestbedConfig(seed=seed, num_workers=6, framework=framework,
                      antagonists=tuple(antagonists))
    )
    testbed.deploy_perfcloud(PerfCloudConfig(h_io=1e9, h_cpi=1e9))
    job = _submit(testbed, kind, bench, size_mb)
    from repro.experiments.harness import run_until

    run_until(testbed.sim, lambda: job.completion_time is not None, 8000)
    testbed.run(10)
    nm = testbed.node_manager()
    victim = nm.detector.signal(testbed.config.app_id, metric)

    suspects = {}
    for name in testbed.antagonist_vms:
        hist = nm.monitor.history.get(name)
        if hist is not None:
            suspects[name] = hist[suspect_metric]

    end = (job.finish_time or testbed.sim.now) + 5
    v_pairs = [(t, v) for t, v in victim if t <= end]
    v_norm = normalize_by_peak([v for _, v in v_pairs])
    victim_series = [(t, float(nv)) for (t, _), nv in zip(v_pairs, v_norm)]

    # Online semantics: the identification dataset starts accumulating
    # when contention is first detected (victim deviation exceeds its
    # threshold) and grows from there — exactly how Fig. 5c/6c sweep
    # "dataset size".  Fall back to the sample before the peak when the
    # threshold is never crossed.
    cfg = PerfCloudConfig()
    threshold = cfg.h_io if metric == "io" else cfg.h_cpi
    # Anchor at the detection threshold when it is crossed; otherwise at
    # the signal's first substantial rise (half its eventual peak) — the
    # moment an online observer would start paying attention.
    peak = max((v for _, v in v_pairs), default=0.0)
    effective = min(threshold, 0.5 * peak) if peak > 0 else threshold
    start_idx = next(
        (i for i, (_, v) in enumerate(v_pairs) if v > effective), None
    )
    start_idx = max(0, (start_idx or 0) - 1)

    from repro.metrics.correlation import pearson
    from repro.metrics.timeseries import TimeSeries

    def corr_over(n: int, suspect: TimeSeries) -> float:
        window = v_pairs[start_idx : start_idx + n]
        if len(window) < 2:
            return 0.0
        times = [t for t, _ in window]
        vvals = [v for _, v in window]
        if missing_policy is MissingPolicy.ZERO:
            svals = suspect.resampled_at(times, missing=0.0)
            return pearson(vvals, svals)
        keep_v, keep_s = [], []
        for t, v in window:
            sv = suspect.value_at(t)
            if sv is not None:
                keep_v.append(v)
                keep_s.append(sv)
        return pearson(keep_v, keep_s)

    def sustained_corr(suspect: TimeSeries, window: int = 8) -> float:
        """Median windowed correlation over the contention episode.

        The node manager evaluates a sliding window every interval; a true
        antagonist correlates through *most* of the episode while a decoy
        only spikes transiently (e.g. during the common start-up ramp), so
        the sustained (median) value is the robust figure-level summary.
        Full windows only — the first few co-ramping samples are excluded,
        the role corr_min_samples plays online.
        """
        scores = []
        for end_i in range(start_idx + window - 1, len(v_pairs)):
            w_pairs = v_pairs[end_i - window + 1 : end_i + 1]
            times = [t for t, _ in w_pairs]
            vvals = [v for _, v in w_pairs]
            if missing_policy is MissingPolicy.ZERO:
                svals = suspect.resampled_at(times, missing=0.0)
                scores.append(pearson(vvals, svals))
            else:
                keep_v, keep_s = [], []
                for t, v in w_pairs:
                    sv = suspect.value_at(t)
                    if sv is not None:
                        keep_v.append(v)
                        keep_s.append(sv)
                scores.append(pearson(keep_v, keep_s))
        if not scores:
            return 0.0
        return float(np.median(scores))

    suspect_series = {}
    correlations = {}
    correlations_by_window: Dict[str, Dict[int, float]] = {}
    for name, series in suspects.items():
        pairs = [(t, v) for t, v in series if t <= end]
        norm = normalize_by_peak([v for _, v in pairs])
        suspect_series[name] = [(t, float(nv)) for (t, _), nv in zip(pairs, norm)]
        correlations[name] = sustained_corr(series)
        correlations_by_window[name] = {
            w: corr_over(w, series) for w in windows
        }
    identified = [n for n, r in correlations.items() if r >= 0.8]
    return IdentificationResultData(
        victim_series=victim_series,
        suspect_series=suspect_series,
        correlations=correlations,
        correlations_by_window=correlations_by_window,
        identified=identified,
    )


def fig5(
    seed: int = 7,
    *,
    size_mb: float = 640.0,
    windows: Sequence[int] = (3, 5, 8, 12),
) -> IdentificationResultData:
    """I/O antagonist identification: terasort vs {fio, oltp, sysbench cpu}.

    fio runs in 30s-on / 20s-off episodes (real tenants have load phases);
    the victim deviation must track *those* phases, not merely the start
    of the experiment, for fio to be singled out from the decoys.
    """
    return _identification_study(
        "mapreduce", "terasort", "io", "io_bytes_ps",
        antagonists=(("fio-episodic", None), ("oltp", None), ("sysbench-cpu", None)),
        true_antagonists=("fio-episodic",),
        seed=seed, size_mb=size_mb, windows=windows,
    )


def fig6(
    seed: int = 7,
    *,
    size_mb: float = 640.0,
    windows: Sequence[int] = (3, 5, 8, 12),
    missing_policy: MissingPolicy = MissingPolicy.ZERO,
) -> IdentificationResultData:
    """CPU antagonist identification: logreg vs {2x STREAM, oltp, sysbench cpu}.

    Uses two small (2-vCPU) STREAM VMs that individually exert limited
    pressure but together cause significant interference (§III-B).
    """
    return _identification_study(
        "spark", "logistic-regression", "cpi", "llc_miss_rate",
        antagonists=(
            ("stream-episodic", None), ("stream-episodic", None),
            ("oltp", None), ("sysbench-cpu", None),
        ),
        true_antagonists=("stream-episodic", "stream-episodic-2"),
        seed=seed, size_mb=size_mb, windows=windows,
        missing_policy=missing_policy,
    )


# --------------------------------------------------------------------------
# Fig. 7 — CUBIC growth regions (analytic)
# --------------------------------------------------------------------------

@dataclass
class Fig7Result:
    """The Eq. 1 growth trajectory and its region structure."""

    intervals: List[int]
    caps: List[float]
    k: float
    beta: float
    gamma: float

    def region(self, t: int) -> str:
        """Growth / plateau / probing classification of interval ``t``."""
        if t < self.k * 0.6:
            return "growth"
        if t <= self.k * 1.4:
            return "plateau"
        return "probing"


def fig7(c_max: float = 1.0, intervals: int = 12,
         config: Optional[PerfCloudConfig] = None) -> Fig7Result:
    """The Eq. 1 cubic trajectory after a cap decrease."""
    cfg = config or PerfCloudConfig()
    controller = CubicController(cfg)
    caps = controller.growth_curve(c_max, intervals)
    return Fig7Result(
        intervals=list(range(intervals + 1)),
        caps=[float(c) for c in caps],
        k=controller.k(c_max),
        beta=cfg.beta,
        gamma=cfg.gamma,
    )


# --------------------------------------------------------------------------
# Figs. 9/10 — dynamic resource control, small scale
# --------------------------------------------------------------------------

@dataclass
class Fig9Result:
    """Scheme comparison: JCTs, signals and antagonist cost."""

    #: scheme -> mean JCT.
    jct: Dict[str, float]
    #: scheme -> JCT improvement over "default".
    improvement: Dict[str, float]
    #: scheme -> io-deviation series (one representative seed).
    io_signal: Dict[str, List[Tuple[float, float]]]
    cpi_signal: Dict[str, List[Tuple[float, float]]]
    #: scheme -> antagonist work completed while the job ran (fio ops +
    #: STREAM bytes, each normalized to the default scheme).
    antagonist_work: Dict[str, Dict[str, float]]


_FIG9_ANTAGONISTS = (("fio", None), ("stream", None), ("oltp", None),
                     ("sysbench-cpu", None))


def _fig9_run(scheme: str, seed: int, size_mb: float,
              telemetry=None) -> tuple:
    testbed = build_testbed(
        TestbedConfig(seed=seed, num_workers=12, framework="spark",
                      antagonists=_FIG9_ANTAGONISTS)
    )
    monitor_only = PerfCloudConfig(h_io=1e9, h_cpi=1e9)
    if scheme == "perfcloud":
        testbed.deploy_perfcloud(telemetry=telemetry)
    elif scheme == "static":
        testbed.deploy_perfcloud(monitor_only)
        stream_cores = float(testbed.antagonist_vms["stream"].vcpus)
        StaticCapPolicy(
            testbed.sim, testbed.cloud,
            io_caps={"fio": (0.2, FIO_FULL_BPS)},
            cpu_caps={"stream": (0.2, stream_cores)},
        )
    else:
        testbed.deploy_perfcloud(monitor_only)
    job = _submit(testbed, "spark", "logistic-regression", size_mb)
    from repro.experiments.harness import run_until

    finished = run_until(
        testbed.sim, lambda: job.completion_time is not None, horizon=8000
    )
    if not finished:
        raise RuntimeError(f"fig9 {scheme} run did not finish (seed={seed})")
    end = job.finish_time
    fio = testbed.antagonist_drivers["fio"]
    stream = testbed.antagonist_drivers["stream"]
    during = {"fio_ops": fio.iops.total, "stream_bytes": stream.bandwidth.total}
    # Post-job window: the cost a policy keeps extracting from the
    # antagonists once the high-priority application is gone — the
    # "unwarranted degradation" static capping suffers from (§II-B).
    testbed.run(300)
    post = {
        "fio_ops": fio.iops.total - during["fio_ops"],
        "stream_bytes": stream.bandwidth.total - during["stream_bytes"],
    }
    nm = testbed.node_manager()
    sig_io = [(t, v) for t, v in nm.detector.signal("app", "io") if t <= end + 5]
    sig_cpi = [(t, v) for t, v in nm.detector.signal("app", "cpi") if t <= end + 5]
    ant_work = {
        "fio_ops": during["fio_ops"] / max(end, 1.0),
        "stream_bytes": during["stream_bytes"] / max(end, 1.0),
        "post_fio_ops": post["fio_ops"] / 300.0,
        "post_stream_bytes": post["stream_bytes"] / 300.0,
    }
    testbed.perfcloud.close()
    return job.completion_time, sig_io, sig_cpi, ant_work, nm


@dataclass(frozen=True)
class _Fig9Task:
    """One scheme × seed run of the Fig. 9 scenario."""

    scheme: str
    seed: int
    size_mb: float


def _fig9_task_runner(task: _Fig9Task) -> tuple:
    # Drop the node manager (an unpicklable object graph); fig10 calls
    # _fig9_run directly because it needs it.
    jct, sig_io, sig_cpi, ant_work, _ = _fig9_run(
        task.scheme, task.seed, task.size_mb
    )
    return jct, sig_io, sig_cpi, ant_work


def fig9(
    seeds: Sequence[int] = (3, 7, 11),
    *,
    size_mb: float = 1280.0,
    schemes: Sequence[str] = ("default", "static", "perfcloud"),
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
) -> Fig9Result:
    """Small-scale dynamic-control comparison (Spark LR, 12 workers)."""
    tasks = [_Fig9Task(scheme=scheme, seed=s, size_mb=size_mb)
             for scheme in schemes for s in seeds]
    outcomes = iter(_fan_out(tasks, _fig9_task_runner, workers=workers,
                             cache_dir=cache_dir, progress=progress))
    jct = {}
    improvement = {}
    io_signal = {}
    cpi_signal = {}
    ant_work: Dict[str, Dict[str, float]] = {}
    for scheme in schemes:
        runs = [next(outcomes) for _ in seeds]
        jct[scheme] = float(np.mean([r[0] for r in runs]))
        io_signal[scheme] = runs[0][1]
        cpi_signal[scheme] = runs[0][2]
        ant_work[scheme] = {
            k: float(np.mean([r[3][k] for r in runs]))
            for k in runs[0][3]
        }
    base = jct.get("default")
    for scheme in schemes:
        improvement[scheme] = 0.0 if base is None else 1.0 - jct[scheme] / base
    # Normalize antagonist work to the default scheme.
    if "default" in ant_work:
        ref = ant_work["default"]
        ant_work = {
            s: {k: (w[k] / ref[k] if ref[k] > 0 else 0.0) for k in w}
            for s, w in ant_work.items()
        }
    return Fig9Result(
        jct=jct, improvement=improvement,
        io_signal=io_signal, cpi_signal=cpi_signal,
        antagonist_work=ant_work,
    )


@dataclass
class Fig10Result:
    """Applied-cap timelines under PerfCloud."""

    #: (vm, resource) -> normalized cap series (NaN = unthrottled).
    cap_series: Dict[Tuple[str, str], List[Tuple[float, float]]]
    #: Number of distinct throttle (decrease) episodes observed.
    throttle_episodes: int


def fig10(seed: int = 7, *, size_mb: float = 1280.0) -> Fig10Result:
    """Cap timelines on the fio and STREAM VMs under PerfCloud."""
    _, _, _, _, nm = _fig9_run("perfcloud", seed, size_mb)
    series = {
        key: [(t, v) for t, v in ts]
        for key, ts in nm.cap_history.items()
        if key[0] in ("fio", "stream")
    }
    decreases = sum(
        1 for (t, vm, res, cap) in nm.actions
        if cap is not None and cap <= (1 - nm.config.beta) + 1e-9
    )
    return Fig10Result(cap_series=series, throttle_episodes=decreases)


# --------------------------------------------------------------------------
# Fig. 11 — large-scale comparison vs. LATE and Dolly
# --------------------------------------------------------------------------

@dataclass
class Fig11Result:
    """Large-scale comparison outcome per scheme."""

    #: scheme -> list of per-job degradations (JCT/ideal - 1).
    mr_degradation: Dict[str, List[float]]
    spark_degradation: Dict[str, List[float]]
    #: scheme -> resource-utilization efficiency.
    efficiency: Dict[str, float]

    def breakdown(self, kind: str, scheme: str,
                  edges: Sequence[float] = (0.1, 0.3, 0.5)) -> Dict[str, float]:
        """Fraction of jobs below each degradation edge (Fig. 11a/b bars)."""
        data = (self.mr_degradation if kind == "mapreduce"
                else self.spark_degradation)[scheme]
        arr = np.asarray(data)
        out = {}
        prev = f"<{int(edges[0]*100)}%"
        out[prev] = float(np.mean(arr < edges[0])) if arr.size else 0.0
        for lo, hi in zip(edges, list(edges[1:]) + [np.inf]):
            label = (f"{int(lo*100)}-{int(hi*100)}%" if np.isfinite(hi)
                     else f">{int(lo*100)}%")
            out[label] = float(np.mean((arr >= lo) & (arr < hi))) if arr.size else 0.0
        return out


def _run_mix(
    scheme: str,
    seed: int,
    *,
    num_hosts: int,
    num_workers: int,
    num_mr_jobs: int,
    num_spark_jobs: int,
    num_antagonist_pairs: int,
    mean_interarrival_s: float,
    horizon: float,
) -> tuple:
    """Run one workload mix under one scheme; returns per-logical-job JCTs
    keyed (kind, index) plus the merged utilization ledger."""
    speculation = LateSpeculation() if scheme == "late" else None
    clones = {"dolly-2": 2, "dolly-4": 4, "dolly-6": 6}.get(scheme, 1)

    testbed = build_testbed(
        TestbedConfig(seed=seed, num_hosts=num_hosts, num_workers=num_workers,
                      framework="both", speculation=speculation,
                      scheduler_policy="fair")
    )
    sim = testbed.sim
    rng = sim.rng.stream("mix")
    if scheme != "ideal":
        # Randomly distribute antagonist VMs across the servers (§IV-C).
        hosts = sorted(testbed.cluster.hosts)
        arng = sim.rng.stream("antagonist-placement")
        for i in range(num_antagonist_pairs):
            testbed.add_antagonist(
                f"fio-{i}", "fio", host=hosts[int(arng.integers(len(hosts)))]
            )
            testbed.add_antagonist(
                f"stream-{i}", "stream",
                host=hosts[int(arng.integers(len(hosts)))],
            )
    if scheme == "perfcloud":
        testbed.deploy_perfcloud()

    mr_mix = facebook_like_mix("mapreduce", num_mr_jobs, rng,
                               mean_interarrival_s=mean_interarrival_s)
    spark_mix = facebook_like_mix("spark", num_spark_jobs, rng,
                                  mean_interarrival_s=mean_interarrival_s)

    mr_cloner = DollyCloner(testbed.jobtracker, clones) if clones > 1 else None
    spark_cloner = DollyCloner(testbed.spark, clones) if clones > 1 else None

    completions: Dict[tuple, object] = {}

    def schedule_job(kind: str, index: int, req) -> None:
        def submit() -> None:
            # Dolly clones *small* jobs only (its published policy: full
            # cloning targets jobs with few tasks; large jobs run plain).
            clone_this = req.num_tasks < 10
            if kind == "mapreduce":
                spec = PUMA_BENCHMARKS[req.benchmark]()
                if mr_cloner is not None and clone_this:
                    handle = mr_cloner.submit(
                        lambda tag: testbed.jobtracker.submit(
                            spec, req.dataset, req.num_reducers, clone_of=tag)
                    )
                else:
                    handle = testbed.jobtracker.submit(
                        spec, req.dataset, req.num_reducers)
            else:
                spec = SPARKBENCH_BENCHMARKS[req.benchmark]()
                if spark_cloner is not None and clone_this:
                    handle = spark_cloner.submit(
                        lambda tag: testbed.spark.submit(
                            spec, req.dataset, clone_of=tag)
                    )
                else:
                    handle = testbed.spark.submit(spec, req.dataset)
            completions[(kind, index)] = handle
        sim.schedule_at(req.submit_time, submit, name=f"submit-{kind}-{index}")

    for i, req in enumerate(mr_mix):
        schedule_job("mapreduce", i, req)
    for i, req in enumerate(spark_mix):
        schedule_job("spark", i, req)

    sim.run(horizon)

    jcts: Dict[tuple, Optional[float]] = {}
    for key, handle in completions.items():
        jcts[key] = handle.completion_time
    ledgers = [testbed.jobtracker.ledger, testbed.spark.ledger]
    successful = sum(l.successful_task_seconds for l in ledgers)
    total = sum(l.total_task_seconds for l in ledgers)
    efficiency = successful / total if total > 0 else 1.0
    if testbed.perfcloud is not None:
        testbed.perfcloud.close()
    return jcts, efficiency


@dataclass(frozen=True)
class _MixTask:
    """One scheme's full workload-mix run (Fig. 11)."""

    scheme: str
    seed: int
    num_hosts: int
    num_workers: int
    num_mr_jobs: int
    num_spark_jobs: int
    num_antagonist_pairs: int
    mean_interarrival_s: float
    horizon: float


def _mix_task_runner(task: _MixTask) -> tuple:
    return _run_mix(
        task.scheme, task.seed,
        num_hosts=task.num_hosts, num_workers=task.num_workers,
        num_mr_jobs=task.num_mr_jobs, num_spark_jobs=task.num_spark_jobs,
        num_antagonist_pairs=task.num_antagonist_pairs,
        mean_interarrival_s=task.mean_interarrival_s, horizon=task.horizon,
    )


def fig11(
    seed: int = 7,
    *,
    schemes: Sequence[str] = ("late", "dolly-2", "dolly-4", "dolly-6", "perfcloud"),
    num_hosts: int = 5,
    num_workers: int = 50,
    num_mr_jobs: int = 15,
    num_spark_jobs: int = 15,
    num_antagonist_pairs: int = 5,
    mean_interarrival_s: float = 20.0,
    horizon: float = 12000.0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
) -> Fig11Result:
    """Large-scale comparison: per-job degradation and efficiency.

    The paper runs 152 nodes / 15 servers / 100+100 jobs; the default here
    is a 50-node / 5-server / 15+15-job scale model (pass the paper's
    numbers to reproduce at full scale).  Antagonist pairs default to one
    per server, randomly placed — the dense regime of the paper's Fig. 12
    discussion, where replication-based schemes cannot escape interference
    but host-level throttling still can; arrivals keep the cluster busy so
    the decentralized agents hold their caps between jobs.
    """
    kwargs = dict(
        num_hosts=num_hosts, num_workers=num_workers,
        num_mr_jobs=num_mr_jobs, num_spark_jobs=num_spark_jobs,
        num_antagonist_pairs=num_antagonist_pairs,
        mean_interarrival_s=mean_interarrival_s, horizon=horizon,
    )
    tasks = [_MixTask(scheme=s, seed=seed, **kwargs)
             for s in ("ideal", *schemes)]
    outcomes = iter(_fan_out(tasks, _mix_task_runner, workers=workers,
                             cache_dir=cache_dir, progress=progress))
    ideal_jcts, _ = next(outcomes)

    mr_deg: Dict[str, List[float]] = {}
    spark_deg: Dict[str, List[float]] = {}
    efficiency: Dict[str, float] = {}
    for scheme in schemes:
        jcts, eff = next(outcomes)
        efficiency[scheme] = eff
        mr_deg[scheme] = []
        spark_deg[scheme] = []
        for key, ideal in ideal_jcts.items():
            actual = jcts.get(key)
            if ideal is None or actual is None or ideal <= 0:
                continue  # unfinished at horizon: excluded (logged upstream)
            deg = actual / ideal - 1.0
            (mr_deg if key[0] == "mapreduce" else spark_deg)[scheme].append(deg)
    return Fig11Result(
        mr_degradation=mr_deg, spark_degradation=spark_deg, efficiency=efficiency
    )


# --------------------------------------------------------------------------
# Fig. 12 — performance variability across repeated executions
# --------------------------------------------------------------------------

@dataclass
class Fig12Result:
    """Variability summaries per scheme over repeated executions."""

    #: scheme -> percentile summary of normalized JCT (terasort).
    terasort: Dict[str, dict]
    #: scheme -> percentile summary of normalized JCT (Spark LR).
    logreg: Dict[str, dict]


@dataclass(frozen=True)
class _Fig12Task:
    """One repeated-execution run (Fig. 12): scheme × kind × seed."""

    scheme: str
    kind: str  # "terasort" | "logreg"
    seed: int
    num_hosts: int
    num_workers: int
    tasks: int
    num_antagonist_pairs: int
    horizon: float


def _fig12_task_runner(task: _Fig12Task) -> Optional[float]:
    size_mb = task.tasks * 64.0
    speculation = LateSpeculation() if task.scheme == "late" else None
    clones = {"dolly-2": 2, "dolly-4": 4, "dolly-6": 6}.get(task.scheme, 1)
    framework = "mapreduce" if task.kind == "terasort" else "spark"
    testbed = build_testbed(
        TestbedConfig(seed=task.seed, num_hosts=task.num_hosts,
                      num_workers=task.num_workers, framework=framework,
                      speculation=speculation, scheduler_policy="fair")
    )
    if task.scheme != "ideal":
        hosts = sorted(testbed.cluster.hosts)
        arng = testbed.sim.rng.stream("antagonist-placement")
        for i in range(task.num_antagonist_pairs):
            testbed.add_antagonist(
                f"fio-{i}", "fio", host=hosts[int(arng.integers(len(hosts)))])
            testbed.add_antagonist(
                f"stream-{i}", "stream",
                host=hosts[int(arng.integers(len(hosts)))])
    if task.scheme == "perfcloud":
        testbed.deploy_perfcloud()
    if task.kind == "terasort":
        spec = PUMA_BENCHMARKS["terasort"]()
        if clones > 1:
            cloner = DollyCloner(testbed.jobtracker, clones)
            handle = cloner.submit(
                lambda tag: testbed.jobtracker.submit(
                    spec, teragen(size_mb), task.tasks, clone_of=tag))
        else:
            handle = testbed.jobtracker.submit(
                spec, teragen(size_mb), task.tasks)
    else:
        spec = SPARKBENCH_BENCHMARKS["logistic-regression"]()
        ds = sparkbench_synthetic("lr", size_mb)
        if clones > 1:
            cloner = DollyCloner(testbed.spark, clones)
            handle = cloner.submit(
                lambda tag: testbed.spark.submit(spec, ds, clone_of=tag))
        else:
            handle = testbed.spark.submit(spec, ds)
    testbed.run(task.horizon)
    return handle.completion_time


def fig12(
    *,
    repeats: int = 10,
    schemes: Sequence[str] = ("late", "dolly-2", "perfcloud"),
    num_hosts: int = 5,
    num_workers: int = 50,
    tasks: int = 50,
    num_antagonist_pairs: int = 5,
    base_seed: int = 100,
    horizon: float = 8000.0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[Progress], None]] = None,
) -> Fig12Result:
    """JCT spread over repeated executions with random antagonist placement.

    The paper repeats 30 times on 15 servers; the default is a 10-repeat /
    5-server scale model.
    """
    out: Dict[str, Dict[str, list]] = {
        s: {"terasort": [], "logreg": []} for s in schemes
    }

    def make_task(scheme: str, kind: str, seed: int) -> _Fig12Task:
        return _Fig12Task(
            scheme=scheme, kind=kind, seed=seed, num_hosts=num_hosts,
            num_workers=num_workers, tasks=tasks,
            num_antagonist_pairs=num_antagonist_pairs, horizon=horizon,
        )

    run_tasks = []
    for kind in ("terasort", "logreg"):
        run_tasks.append(make_task("ideal", kind, base_seed))
        for scheme in schemes:
            for r in range(repeats):
                run_tasks.append(make_task(scheme, kind, base_seed + 1 + r))
    outcomes = iter(_fan_out(run_tasks, _fig12_task_runner, workers=workers,
                             cache_dir=cache_dir, progress=progress))

    for kind in ("terasort", "logreg"):
        ideal = next(outcomes)
        if ideal is None:
            raise RuntimeError("fig12 ideal run did not finish")
        for scheme in schemes:
            for r in range(repeats):
                jct = next(outcomes)
                if jct is not None:
                    out[scheme][kind].append(jct / ideal)
    return Fig12Result(
        terasort={s: percentile_summary(out[s]["terasort"]) for s in schemes},
        logreg={s: percentile_summary(out[s]["logreg"]) for s in schemes},
    )

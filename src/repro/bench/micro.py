"""Micro benchmarks for the simulator & control-plane hot paths.

Each benchmark returns a flat ``{metric_name: value}`` dict.  Metrics
ending in ``speedup_vs_naive`` are ratios of the naive reference to the
optimized implementation measured in the same process on the same data —
machine-independent, so the CI gate can check them tightly.  Absolute
``*_ops_per_s`` / ``*_us_per_*`` numbers are machine-dependent and only
gated in strict (same-machine) comparisons.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.bench import naive
from repro.core.config import PerfCloudConfig
from repro.core.identification import AntagonistIdentifier
from repro.metrics.correlation import MissingPolicy, aligned_pearson_many
from repro.metrics.plane import MetricPlane
from repro.metrics.stats import RollingStats
from repro.metrics.timeseries import TimeSeries
from repro.sim.engine import Simulator

__all__ = ["MICRO_BENCHMARKS", "run_micro"]

#: Monitoring cadence used to synthesize realistic histories (seconds).
_INTERVAL = 5.0


def _best_of(fn: Callable[[], int], repeat: int) -> Tuple[float, int]:
    """(best elapsed seconds, work units per run) over ``repeat`` runs."""
    best = float("inf")
    units = 1
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        units = fn()
        best = min(best, time.perf_counter() - t0)
    return best, max(1, units)


def _synth_series(make, n: int, seed: int, name: str = ""):
    """A series of ``n`` samples at the monitor cadence with noisy values."""
    rng = np.random.default_rng(seed)
    ts = make(capacity=4096, name=name)
    values = rng.random(n)
    for i in range(n):
        ts.append(_INTERVAL * (i + 1), float(values[i]))
    return ts


def bench_timeseries_lookup(repeat: int = 3) -> Dict[str, float]:
    """Aligned resampling of a suspect history — the per-suspect inner op."""
    n, window, calls = 720, 12, 400
    fast = _synth_series(TimeSeries, n, seed=1)
    slow = _synth_series(naive.NaiveTimeSeries, n, seed=1)
    grid = np.asarray([_INTERVAL * (n - window + i + 1) for i in range(window)])

    def run_fast() -> int:
        for _ in range(calls):
            fast.resampled_at(grid, missing=0.0)
        return calls

    def run_naive() -> int:
        for _ in range(calls):
            slow.resampled_at(grid, missing=0.0)
        return calls

    t_fast, units = _best_of(run_fast, repeat)
    t_naive, _ = _best_of(run_naive, max(1, repeat - 2))
    return {
        "timeseries.resample_ops_per_s": units / t_fast,
        "timeseries.resample_us_per_call": t_fast / units * 1e6,
        "timeseries.speedup_vs_naive": t_naive / t_fast,
    }


def bench_identifier(repeat: int = 3) -> Dict[str, float]:
    """Steady-state identifier intervals at fig11-ish scale.

    Victim deviation signal of 720 samples correlated against 24 suspect
    usage series (every low-priority VM on the host), window 12.  Every
    timed interval lands one fresh sample per series and re-scores all
    suspects — the incremental identifier's O(1)-per-pair slide update
    against the pre-vectorization per-suspect full-history realignment.
    """
    n, n_suspects = 720, 24
    victim_fast = _synth_series(TimeSeries, n, seed=2, name="victim")
    victim_naive = _synth_series(naive.NaiveTimeSeries, n, seed=2, name="victim")
    fast_suspects = {
        f"vm{i}": _synth_series(TimeSeries, n, seed=100 + i) for i in range(n_suspects)
    }
    naive_suspects = {
        f"vm{i}": _synth_series(naive.NaiveTimeSeries, n, seed=100 + i)
        for i in range(n_suspects)
    }
    config = PerfCloudConfig()
    identifier = AntagonistIdentifier(config)
    calls = 50
    rng = np.random.default_rng(6)
    fresh = rng.random((2000, n_suspects + 1))
    fast_k = [n]
    naive_k = [n]

    def _advance(k: int, victim, suspects) -> float:
        """One monitoring interval: new victim + suspect samples."""
        t = _INTERVAL * (k + 1)
        row = fresh[k % fresh.shape[0]]
        victim.append(t, float(row[0]))
        for j, s in enumerate(suspects.values()):
            s.append(t, float(row[j + 1]))
        return t

    def run_fast() -> int:
        for _ in range(calls):
            now = _advance(fast_k[0], victim_fast, fast_suspects)
            fast_k[0] += 1
            identifier.identify("io", victim_fast, fast_suspects, now=now)
        return calls

    def run_naive() -> int:
        # The pre-vectorization interval: per-suspect full-history rebuilds.
        for _ in range(2):
            _advance(naive_k[0], victim_naive, naive_suspects)
            naive_k[0] += 1
            naive.naive_identify_scores(
                victim_naive, naive_suspects,
                window=config.corr_window, policy=MissingPolicy.ZERO,
            )
        return 2

    # Sanity: advance both paths in lockstep and require identical scores
    # before timing anything (the incremental path must stay exact).
    for _ in range(5):
        _advance(fast_k[0], victim_fast, fast_suspects)
        now = _advance(naive_k[0], victim_naive, naive_suspects)
        fast_k[0] += 1
        naive_k[0] += 1
        fast_scores = identifier.identify(
            "io", victim_fast, fast_suspects, now=now
        ).correlations
        naive_scores = naive.naive_identify_scores(
            victim_naive, naive_suspects,
            window=config.corr_window, policy=MissingPolicy.ZERO,
        )
        for vm, r in naive_scores.items():
            if abs(fast_scores[vm] - r) > 1e-12:
                raise AssertionError(
                    f"optimized identifier diverged from reference on {vm}: "
                    f"{fast_scores[vm]!r} vs {r!r}"
                )

    t_fast, u_fast = _best_of(run_fast, repeat)
    t_naive, u_naive = _best_of(run_naive, max(1, repeat - 2))
    us_fast = t_fast / u_fast * 1e6
    us_naive = t_naive / u_naive * 1e6

    # A quiet host: the victim signal is flat (one high-priority VM, or
    # idle members), so every suspect scores 0.0.  The identifier answers
    # without touching the suspects; the reference aligns and scores each.
    flat = TimeSeries(capacity=4096, name="flat")
    for i in range(n):
        flat.append(_INTERVAL * (i + 1), 0.0)
    flat_now = _INTERVAL * n
    flat_calls = 40 * calls  # ~10 µs each: time a longer batch

    def run_flat() -> int:
        for _ in range(flat_calls):
            identifier.identify("io", flat, fast_suspects, now=flat_now)
        return flat_calls

    def run_realign() -> int:
        for _ in range(calls):
            aligned_pearson_many(flat, fast_suspects, window=config.corr_window,
                                 policy=MissingPolicy.ZERO)
        return calls

    got = identifier.identify("io", flat, fast_suspects, now=flat_now)
    if got.correlations != aligned_pearson_many(
        flat, fast_suspects, window=config.corr_window, policy=MissingPolicy.ZERO
    ):
        raise AssertionError("flat-victim identifier diverged from reference")
    # Both sides are cheap: interleave several rounds so one CPU-steal
    # burst cannot depress only one side of the ratio.
    t_flat = t_realign = float("inf")
    for _ in range(max(5, repeat)):
        t_flat = min(t_flat, _best_of(run_flat, 1)[0])
        t_realign = min(t_realign, _best_of(run_realign, 1)[0])
    us_flat = t_flat / flat_calls * 1e6
    return {
        "identifier.us_per_interval": us_fast,
        "identifier.naive_us_per_interval": us_naive,
        "identifier.speedup_vs_naive": us_naive / us_fast,
        "identifier.flat_us_per_interval": us_flat,
        "identifier.flat_speedup_vs_realign": t_realign / calls * 1e6 / us_flat,
    }


def bench_plane(repeat: int = 3) -> Dict[str, float]:
    """Columnar metric plane vs the per-(VM, metric) append store.

    One monitor interval at fig-scale (24 VMs × 5 metrics): the plane
    lands the whole interval with one batched ``ingest`` plus two
    masked-column ``latest`` reads (the detector's deviation inputs); the
    naive path is the pre-columnar shape — 120 individual ring-buffer
    appends plus per-member newest-value probes.
    """
    metrics = ("iowait_ratio", "cpi", "io_bytes_ps", "llc_miss_rate",
               "cpu_usage_cores")
    n_vms, intervals = 24, 150
    names = [f"vm{i}" for i in range(n_vms)]
    members = names[:12]
    rng = np.random.default_rng(5)
    vals = rng.random((intervals, n_vms, len(metrics)))
    # Both paths consume the same pre-built per-interval sample dicts, so
    # assembling them is part of neither measurement.
    batches = [
        {
            names[i]: {m: float(vals[k, i, j]) for j, m in enumerate(metrics)}
            for i in range(n_vms)
        }
        for k in range(intervals)
    ]

    def run_fast() -> int:
        plane = MetricPlane(metrics)
        for k, batch in enumerate(batches):
            plane.ingest(_INTERVAL * (k + 1), batch)
            plane.latest("iowait_ratio", members)
            plane.latest("cpi", members)
        return len(batches)

    def run_naive() -> int:
        history: dict = {}
        work = len(batches) // 3
        for k in range(work):
            naive.naive_history_ingest(history, _INTERVAL * (k + 1), batches[k])
            for metric in ("iowait_ratio", "cpi"):
                for vm in members:
                    history[vm][metric].last_value
        return work

    # Sanity: after one interval both layouts must surface the same
    # newest values to the detector.
    plane = MetricPlane(metrics)
    plane.ingest(_INTERVAL, batches[0])
    history: dict = {}
    naive.naive_history_ingest(history, _INTERVAL, batches[0])
    col = plane.latest("iowait_ratio", members)
    for vm in members:
        if col[vm] != history[vm]["iowait_ratio"].last_value:
            raise AssertionError(
                f"plane diverged from per-series history on {vm}: "
                f"{col[vm]!r} vs {history[vm]['iowait_ratio'].last_value!r}"
            )

    t_fast, u_fast = _best_of(run_fast, repeat)
    t_naive, u_naive = _best_of(run_naive, max(1, repeat - 2))
    per_fast = t_fast / u_fast
    per_naive = t_naive / u_naive
    cells = n_vms * len(metrics)
    return {
        "plane.ingest_us_per_interval": per_fast * 1e6,
        "plane.ingest_cells_per_s": cells / per_fast,
        "plane.speedup_vs_naive": per_naive / per_fast,
    }


def bench_rolling_stats(repeat: int = 3) -> Dict[str, float]:
    """Incremental rolling mean/std vs recomputing the tail every push."""
    n, window = 20000, 12
    rng = np.random.default_rng(3)
    data = rng.random(n).tolist()

    def run_fast() -> int:
        rs = RollingStats(window)
        sink = 0.0
        for x in data:
            rs.push(x)
            sink += rs.std
        return n

    def run_naive() -> int:
        seen: list = []
        sink = 0.0
        for x in data[: n // 10]:
            seen.append(x)
            sink += naive.naive_rolling_tail_stats(seen, window)[1]
        return n // 10

    t_fast, u_fast = _best_of(run_fast, repeat)
    t_naive, u_naive = _best_of(run_naive, max(1, repeat - 2))
    per_fast = t_fast / u_fast
    per_naive = t_naive / u_naive
    return {
        "rolling.push_ops_per_s": 1.0 / per_fast,
        "rolling.speedup_vs_naive": per_naive / per_fast,
    }


def bench_engine_events(repeat: int = 3) -> Dict[str, float]:
    """Raw event throughput: periodic tasks + steppers + one-shot storms."""

    def run_periodic() -> int:
        sim = Simulator(dt=1.0, seed=0)

        class _Stepper:
            def step(self, dt: float) -> None:
                pass

        for _ in range(4):
            sim.add_stepper(_Stepper())
        for i in range(40):
            sim.every(1.0 + (i % 7) * 0.5, lambda: None)
        sim.run(2000.0)
        return sim.events_fired + sim.ticks

    def run_cancel_heavy() -> int:
        # Three quarters of all scheduled work is cancelled before it
        # fires — the speculative-clone pattern that exercises the lazy
        # heap compaction.
        sim = Simulator(dt=1.0, seed=0)
        total = 40000
        events = [sim.schedule(1.0 + (i % 997), lambda: None) for i in range(total)]
        for i, ev in enumerate(events):
            if i % 4:
                ev.cancel()
        sim.run(1000.0)
        return total

    t_p, u_p = _best_of(run_periodic, repeat)
    t_c, u_c = _best_of(run_cancel_heavy, repeat)
    return {
        "engine.events_per_s": u_p / t_p,
        "engine.cancel_heavy_events_per_s": u_c / t_c,
    }


def bench_obs(repeat: int = 3) -> Dict[str, float]:
    """Telemetry overhead on a full fig9 closed-loop run.

    The same fig9 PerfCloud run (12 Spark workers, four antagonists, one
    detect→identify→throttle→release cycle per antagonist resource) is
    timed telemetry-off and telemetry-on (incident ledger + span
    recorder, best-of-N walls).  Telemetry must be a pure observer: the
    run fingerprint — JCT, both deviation signals, antagonist work and
    the full actuation log — is required identical before any number is
    reported, and the ledger must contain at least one incident showing
    the complete lifecycle.  ``obs.overhead_ratio`` (on/off) is the
    number the paper-faithfulness gate cares about: the observability
    plane has to cost < 3% of the control loop it watches.
    """
    from repro.experiments.figures import _fig9_run
    from repro.obs import Telemetry

    seed, size_mb = 3, 1280.0

    def _fingerprint(result) -> tuple:
        jct, sig_io, sig_cpi, ant_work, nm = result
        return (
            jct,
            tuple(sig_io),
            tuple(sig_cpi),
            tuple(sorted(ant_work.items())),
            tuple(nm.actions),
        )

    # The gate is tight (<3%) while single 0.3s walls jitter by ±10% on
    # shared CI machines, so the measurement defends itself four ways:
    # a discarded warmup pair takes the one-off allocator/page costs; the
    # remaining pairs alternate their off/on order (a monotone machine
    # slowdown — thermal ramp, turbo decay — would otherwise always
    # charge the second leg, which a fixed order would make "on" every
    # time); the ratio is estimated three ways — ratio of best-of-N
    # walls, median of per-pair ratios, and ratio of median walls —
    # taking the smallest, since noise only ever inflates each
    # estimator while a real regression shows in all three; and cyclic
    # GC is off inside the timed regions, because in a long-lived host
    # process (pytest) every collection scans the host's whole object
    # graph, charging whichever side allocates slightly more for the
    # host's garbage.
    runs = max(9, repeat)
    walls_off = []
    walls_on = []
    fp_off = fp_on = None
    telemetry = None
    import gc

    def timed(tel):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = _fig9_run("perfcloud", seed, size_mb, telemetry=tel)
            return result, time.perf_counter() - t0
        finally:
            gc.enable()

    # Warmup pair, discarded: in a long-lived host process the first
    # fig9 legs after unrelated work pay one-off allocator/page costs.
    timed(None)
    timed(Telemetry(ledger=True, spans=True))

    for i in range(runs):
        telemetry = Telemetry(ledger=True, spans=True)
        if i % 2 == 0:
            off, pair_off = timed(None)
            on, pair_on = timed(telemetry)
        else:
            on, pair_on = timed(telemetry)
            off, pair_off = timed(None)
        walls_off.append(pair_off)
        walls_on.append(pair_on)
        fp_off = _fingerprint(off)
        fp_on = _fingerprint(on)

    if fp_on != fp_off:
        raise AssertionError(
            "telemetry perturbed the fig9 run: outputs differ between "
            "telemetry-off and telemetry-on at the same seed"
        )
    ledger = telemetry.ledger
    full_lifecycle = [
        inc for inc in ledger.incidents
        if inc.identified and inc.throttles and inc.releases
        and inc.resolved_time is not None
    ]
    if not full_lifecycle:
        raise AssertionError(
            "fig9 ledger shows no detect→identify→throttle→release "
            f"incident (got {len(ledger.incidents)} incidents)"
        )
    if len(telemetry.spans) == 0:
        raise AssertionError("span recorder captured nothing on fig9")
    wall_off = min(walls_off)
    wall_on = min(walls_on)
    ratios = [on / off for on, off in zip(walls_on, walls_off)]
    estimates = (
        wall_on / wall_off,                             # best-of-N walls
        float(np.median(ratios)),                       # median pair ratio
        float(np.median(walls_on) / np.median(walls_off)),  # median walls
    )
    return {
        "obs.fig9_wall_off_s": wall_off,
        "obs.fig9_wall_on_s": wall_on,
        "obs.overhead_ratio": min(estimates),
        "obs.incidents_per_run": float(len(ledger.incidents)),
    }


class _ScriptedDriver:
    """Deterministic driver cycling through a fixed demand schedule."""

    finished = False

    def __init__(self, demands, profile) -> None:
        self._demands = demands
        self._i = 0
        self.profile = profile

    def demand(self):
        d = self._demands[self._i % len(self._demands)]
        self._i += 1
        return d

    def consume(self, grant) -> None:
        pass


def _make_dataplane_host(n_guests: int, name: str = "bench0",
                         churn: bool = False):
    """One host + ``n_guests`` scripted VMs exercising every kernel mask.

    The demand mix covers the shapes the columnar kernels special-case:
    CPU-heavy rows with LLC/bandwidth appetite, IO-heavy rows, capped
    rows (cgroup CPU quota and blkio throttle), and rows that go idle on
    a cycle (mask churn).  With ``churn``, Fig. 9's shape instead: every
    guest holds its demand, except one whose disk read rate changes every
    tick.  Identical construction at identical seeds yields identical
    RNG streams, so a scalar host and a columnar host built by this
    function step bitwise in lockstep.
    """
    from repro.hardware.host import PhysicalHost
    from repro.hardware.resources import PerfProfile, ResourceDemand, ZERO_DEMAND
    from repro.hardware.specs import R630
    from repro.sim.rng import RngRegistry
    from repro.virt.vm import VM

    cpu_prof = PerfProfile(base_cpi=0.9, llc_sensitivity=0.6,
                           bw_sensitivity=0.8, mpki_min=1.0, mpki_max=9.0)
    io_prof = PerfProfile(base_cpi=1.4, llc_sensitivity=0.1,
                          bw_sensitivity=0.2, mpki_min=0.5, mpki_max=3.0)
    host = PhysicalHost(name, R630, RngRegistry(11))
    vms = []
    for i in range(n_guests):
        vm = VM(f"vm{i:03d}", vcpus=2 + (i % 3))
        if i % 3 == 0:
            work = ResourceDemand(cpu_cores=1.5 + 0.1 * (i % 5),
                                  mem_bw_gbps=0.6, llc_ws_mb=4.0 + (i % 7))
            sched = [work] * 6 + [ZERO_DEMAND]
            prof = cpu_prof
        else:
            work = ResourceDemand(cpu_cores=0.4,
                                  read_iops=2000.0 + 100.0 * (i % 9),
                                  read_bytes_ps=60e6, write_iops=500.0,
                                  write_bytes_ps=15e6, mem_bw_gbps=0.2,
                                  llc_ws_mb=1.5)
            sched = [work] * 9 + [ZERO_DEMAND, ZERO_DEMAND]
            prof = io_prof
        if churn:
            sched = [work]
            if i == 1:
                sched = [dataclasses.replace(work, read_iops=1000.0 + 37.0 * t)
                         for t in range(97)]
        if i % 5 == 0:
            vm.cgroup.cpu.quota_cores = 1.5
        if i % 4 == 0:
            vm.cgroup.throttle.iops_cap = 1800.0
        vm.attach_workload(_ScriptedDriver(sched, prof))
        host.attach(vm)
        vms.append(vm)
    return host, vms


def _dataplane_lockstep(table, slow_hosts, ticks: int) -> None:
    """Step a table and its scalar twins (``slow_hosts[h]`` mirrors
    ``table.hosts[h]``); raise on any grant mismatch."""
    from repro.hardware.host import step_hosts

    for _ in range(ticks):
        step_hosts(table, 1.0)
        for h, host in enumerate(slow_hosts):
            res = host.step_local(1.0)
            for k in table.slots[h]:
                g = table.grants[k]
                s = res.grants[table.names[k]]
                got = (g.cpu_coresec, g.effective_coresec, g.cpi, g.mpki,
                       g.read_ops, g.write_ops, g.read_bytes, g.write_bytes,
                       g.io_wait_ms_per_op, g.mem_bytes)
                want = (s.cpu_coresec, s.effective_coresec, s.cpi, s.mpki,
                        s.read_ops, s.write_ops, s.read_bytes, s.write_bytes,
                        s.io_wait_ms_per_op, s.mem_bytes)
                if got != want:
                    raise AssertionError(
                        f"columnar data plane diverged from scalar oracle on "
                        f"{table.names[k]}: {got!r} vs {want!r}"
                    )


def _dataplane_ratio(n_hosts: int, n_guests: int, ticks: int, repeat: int,
                     idle: bool = False,
                     churn: bool = False) -> Tuple[float, float]:
    """(table µs/tick, speedup over scalar) for ``n_hosts`` × ``n_guests``.

    The columnar side steps all hosts through one ``GuestTable``; the
    scalar side steps identical hosts one ``step_local`` at a time.  A
    bitwise lockstep pass over fresh twins runs first.  The sides are
    timed in ``2 * repeat + 1`` interleaved pairs, alternating which
    runs first, and both figures are medians over the pairs: a CPU-steal
    burst then depresses one pair instead of every run of one side.
    """
    from repro.hardware.host import step_hosts
    from repro.hardware.resources import ZERO_DEMAND
    from repro.hardware.table import GuestTable

    def build():
        fast = [_make_dataplane_host(n_guests, f"bench{h:02d}", churn)
                for h in range(n_hosts)]
        slow = [_make_dataplane_host(n_guests, f"bench{h:02d}", churn)
                for h in range(n_hosts)]
        if idle:
            for _, vms in fast + slow:
                for vm in vms:
                    vm.attach_workload(
                        _ScriptedDriver([ZERO_DEMAND], vm.driver.profile))
        return GuestTable([f for f, _ in fast]), [s for s, _ in slow]

    table, slow_hosts = build()
    _dataplane_lockstep(table, slow_hosts, 13)
    table, slow_hosts = build()

    def run_fast() -> int:
        for _ in range(ticks):
            step_hosts(table, 1.0)
        return ticks

    def run_naive() -> int:
        for _ in range(ticks):
            for host in slow_hosts:
                host.step_local(1.0)
        return ticks

    fast_us, ratios = [], []
    for pair in range(2 * max(1, repeat) + 1):
        if pair % 2:  # alternate which side runs first
            t_naive, t_fast = _best_of(run_naive, 1)[0], _best_of(run_fast, 1)[0]
        else:
            t_fast, t_naive = _best_of(run_fast, 1)[0], _best_of(run_naive, 1)[0]
        fast_us.append(t_fast / ticks * 1e6)
        ratios.append(t_naive / t_fast)
    return float(np.median(fast_us)), float(np.median(ratios))


def bench_dataplane(repeat: int = 3) -> Dict[str, float]:
    """Columnar host stepping vs the scalar dict-per-tick oracle.

    Ratios, all measured in-process on identical inputs after a bitwise
    lockstep sanity pass:

    * ``dataplane.speedup_vs_naive`` — one 24-guest host under the mixed
      active schedule: ``step_hosts`` over a one-host ``GuestTable``
      (guests publish ndarray rows, the kernels run vectorized, grants
      refreshed in place) against ``step_local`` (per-tick
      demand/request/grant dict construction);
    * ``dataplane.cluster_speedup_vs_naive`` — 48 hosts × 5 guests, the
      fleet shape: one table for all hosts against 48 scalar steps;
    * ``dataplane.small_host_speedup_vs_naive`` — one 8-guest host, the
      smallest table the figures step (Fig. 11's hosts);
    * ``dataplane.idle_speedup_vs_naive`` — the all-idle 24-guest host,
      where the table's cached idle grants shortcut re-emission;
    * ``dataplane.churn_speedup_vs_naive`` — one 16-guest host where a
      single row's disk demand changes every tick (Fig. 9's shape): the
      disk plan is rebuilt every tick, the CPU and memory-system plans
      are reused;
    * ``dataplane.fabric_speedup_vs_naive`` — the vectorized NIC
      water-filling against the per-flow dict-accumulation loop it
      replaced.
    """
    from repro.hardware.network import Flow, NetworkFabric

    fast, speedup = _dataplane_ratio(1, 24, 60, repeat)
    cluster_fast, cluster_speedup = _dataplane_ratio(48, 5, 10, repeat)
    _, small_speedup = _dataplane_ratio(1, 8, 120, repeat)
    _, idle_speedup = _dataplane_ratio(1, 24, 60, repeat, idle=True)
    _, churn_speedup = _dataplane_ratio(1, 16, 90, repeat, churn=True)

    # ---- fabric --------------------------------------------------------
    n_hosts, n_flows = 15, 240
    nic = {f"h{i:02d}": 1.25e9 for i in range(n_hosts)}
    fabric = NetworkFabric(nic)
    flows = [
        Flow(src_vm=f"s{i}", dst_vm=f"d{i}",
             src_host=f"h{i % n_hosts:02d}",
             dst_host=f"h{(i * 7 + 3) % n_hosts:02d}",
             bytes_per_s=2e8 + 1e6 * i)
        for i in range(n_flows)
    ]
    got_bytes = fabric.allocate(flows, 1.0)
    want_bytes, want_util = naive.naive_fabric_allocate(nic, flows, 1.0)
    if got_bytes != want_bytes or fabric.utilization != want_util:
        raise AssertionError(
            "vectorized fabric diverged from the scalar reference loop"
        )
    fabric_calls = 40

    def run_fabric_fast() -> int:
        for _ in range(fabric_calls):
            fabric.allocate(flows, 1.0)
        return fabric_calls

    def run_fabric_naive() -> int:
        for _ in range(fabric_calls):
            naive.naive_fabric_allocate(nic, flows, 1.0)
        return fabric_calls

    t_ffast, u_ffast = _best_of(run_fabric_fast, repeat)
    t_fnaive, u_fnaive = _best_of(run_fabric_naive, repeat)

    return {
        "dataplane.step_us_per_tick": fast,
        "dataplane.naive_step_us_per_tick": fast * speedup,
        "dataplane.speedup_vs_naive": speedup,
        "dataplane.cluster_step_us_per_tick": cluster_fast,
        "dataplane.cluster_speedup_vs_naive": cluster_speedup,
        "dataplane.small_host_speedup_vs_naive": small_speedup,
        "dataplane.idle_speedup_vs_naive": idle_speedup,
        "dataplane.churn_speedup_vs_naive": churn_speedup,
        "dataplane.fabric_us_per_call": t_ffast / u_ffast * 1e6,
        "dataplane.fabric_speedup_vs_naive": (
            (t_fnaive / u_fnaive) / (t_ffast / u_ffast)
        ),
    }


def _control_host(active: bool):
    """One host under a manually stepped node manager.

    Quiet: one idle high-priority VM and two idle low ones.  Active: a
    three-VM victim app (two OLTP, one CPU-bound), an episodic fio
    antagonist and an idle bystander — every interval detects, and
    identification and CUBIC control run once the fio episodes start.
    """
    from repro.cloud.nova import CloudManager
    from repro.core.node_manager import NodeManager
    from repro.virt.cluster import Cluster
    from repro.virt.vm import Priority
    from repro.workloads.antagonists import (
        FioRandomRead, SysbenchCpu, SysbenchOltp,
    )

    sim = Simulator(dt=1.0, seed=3)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    if active:
        drivers = (SysbenchOltp(duration_s=None), SysbenchOltp(duration_s=None),
                   SysbenchCpu())
        for j, driver in enumerate(drivers):
            cloud.boot(f"app-{j}", priority=Priority.HIGH, app_id="victim",
                       host="h0").attach_workload(driver)
        cloud.boot("ant", host="h0").attach_workload(
            FioRandomRead(on_s=40.0, off_s=30.0))
        cloud.boot("idle", host="h0")
    else:
        cloud.boot("app", priority=Priority.HIGH, app_id="app", host="h0")
        for j in range(2):
            cloud.boot(f"low-{j}", host="h0")
    return sim, NodeManager(sim, "h0", cloud, autostart=False)


def _control_us(active: bool, warmup: int, intervals: int) -> float:
    """µs per ``control_interval``, the data plane stepped untimed between."""
    sim, nm = _control_host(active)
    step = nm.config.interval_s
    spent = 0.0
    for k in range(warmup + intervals):
        sim.run_for(step)
        t0 = time.perf_counter()
        nm.control_interval()
        if k >= warmup:
            spent += time.perf_counter() - t0
    return spent / intervals * 1e6


def bench_control(repeat: int = 3) -> Dict[str, float]:
    """The node manager's whole control interval, per host.

    Informational (no floor): the fixed per-host cost of sample → detect
    → identify → control on a quiet 3-VM host and an active 5-VM host,
    best of ``repeat`` fresh worlds stepped through real intervals.
    """
    runs = range(max(1, repeat))
    return {
        "control.quiet_us_per_interval": min(
            _control_us(False, warmup=4, intervals=60) for _ in runs),
        "control.active_us_per_interval": min(
            _control_us(True, warmup=12, intervals=60) for _ in runs),
    }


def _sample_us(n_vms: int, active: bool, warmup: int, intervals: int) -> float:
    """µs per ``PerformanceMonitor.sample`` on one ``n_vms``-guest host,
    the data plane stepped untimed between samples.  Active hosts run a
    fio antagonist on every other guest and sysbench-cpu on the rest."""
    from repro.cloud.nova import CloudManager
    from repro.core.monitor import PerformanceMonitor
    from repro.virt.cluster import Cluster
    from repro.workloads.antagonists import FioRandomRead, SysbenchCpu

    sim = Simulator(dt=1.0, seed=3)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    for i in range(n_vms):
        vm = cloud.boot(f"vm{i:02d}", host="h0")
        if active:
            vm.attach_workload(FioRandomRead() if i % 2 else SysbenchCpu())
    config = PerfCloudConfig()
    monitor = PerformanceMonitor(cloud.connection("h0"), config)
    spent = 0.0
    for k in range(warmup + intervals):
        sim.run_for(config.interval_s)
        t0 = time.perf_counter()
        monitor.sample(sim.now)
        if k >= warmup:
            spent += time.perf_counter() - t0
    return spent / intervals * 1e6


def bench_sample(repeat: int = 3) -> Dict[str, float]:
    """One host's monitor pass: the batched facade read, deltas, EWMAs
    and the plane row ingest.

    Informational (no floor): a quiet 3-VM host (the fleet shape) and an
    active 16-VM host (the fig. 9 shape), best of ``repeat`` fresh worlds.
    """
    runs = range(max(1, repeat))
    return {
        "sample.vms3_us_per_interval": min(
            _sample_us(3, False, warmup=2, intervals=60) for _ in runs),
        "sample.vms16_us_per_interval": min(
            _sample_us(16, True, warmup=2, intervals=60) for _ in runs),
    }


#: name -> benchmark callable(repeat) returning {metric: value}.
MICRO_BENCHMARKS = {
    "control": bench_control,
    "sample": bench_sample,
    "dataplane": bench_dataplane,
    "timeseries": bench_timeseries_lookup,
    "identifier": bench_identifier,
    "plane": bench_plane,
    "rolling": bench_rolling_stats,
    "engine": bench_engine_events,
    "obs": bench_obs,
}


def run_micro(repeat: int = 3) -> Dict[str, float]:
    """Run every micro benchmark; returns ``micro.``-prefixed metrics."""
    out: Dict[str, float] = {}
    for name, fn in MICRO_BENCHMARKS.items():
        for metric, value in fn(repeat).items():
            out[f"micro.{metric}"] = value
    return out

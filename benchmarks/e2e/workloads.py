"""The benchmark's four workloads: seeded inputs, one pass, output checks.

Each workload turns ``--seed`` into the program's inputs, runs one pass
through the public API (serially: ``workers=0``, ``shard_workers=0``),
and then judges the pass from its result and from what every PerfCloud
deployment did (:func:`layers.describe_deployment`):

* ``digest`` — a SHA-256 over the simulated outputs (JCTs, deviation
  signals, every actuation, efficiency, throttle sets).  It must repeat
  exactly across passes and match the committed golden for the seed.
* ``problems`` — invariants that hold at every seed: every job
  finished, no high-priority VM was ever throttled, and a quiet fleet
  actuates nothing.
* ``model`` — what the modelled system achieved (JCT reduction,
  antagonist recall...), printed beside the host-time metrics.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Fig. 9's published JCT reduction for PerfCloud over no control.
PAPER_FIG9_JCT_REDUCTION = 0.31


def derive_seeds(seed: int, count: int, salt: int) -> Tuple[int, ...]:
    """``count`` program seeds drawn from the benchmark seed."""
    rng = np.random.default_rng([seed, salt])
    return tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=count))


def digest(material) -> str:
    """SHA-256 of a JSON rendering (floats keep every digit)."""
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def throttled(deployments: List[dict]) -> Dict[str, set]:
    """VM name -> resources it was capped on, over all deployments."""
    out: Dict[str, set] = {}
    for dep in deployments:
        for _, vm, resource, cap in dep["actions"]:
            if cap is not None:
                out.setdefault(vm, set()).add(resource)
    return out


def isolation_scores(deployments: List[dict],
                     is_antagonist: Callable[[str], bool]) -> Dict[str, float]:
    """Throttle precision and recall against the known antagonists.

    Precision is the share of throttled VMs that are antagonists (1.0
    when nothing was throttled: no false throttles).  Recall is the
    share of antagonists throttled by a deployment running the paper's
    control loop (monitor-only deployments cannot throttle).
    """
    caps = throttled(deployments)
    false = [vm for vm in caps if not is_antagonist(vm)]
    acting = [d for d in deployments if d["controls"]]
    targets = {vm for d in acting for vm in d["low"] if is_antagonist(vm)}
    hit = {vm for vm in throttled(acting) if vm in targets}
    bystanders = {vm for d in deployments for vm in d["low"]
                  if not is_antagonist(vm)}
    return {
        "throttle_precision": 1.0 - len(false) / len(caps) if caps else 1.0,
        "throttle_recall": len(hit) / len(targets) if targets else 1.0,
        "false_throttle_frac": (sum(1 for vm in false if vm in bystanders)
                                / len(bystanders) if bystanders else 0.0),
    }


def high_throttled(deployments: List[dict]) -> List[str]:
    """An invariant violation per high-priority VM that was capped."""
    high = {vm for dep in deployments for vm in dep["high"]}
    return [f"high-priority VM {vm} throttled" for vm in sorted(throttled(deployments))
            if vm in high]


def deployment_material(deployments: List[dict]) -> list:
    return [[d["actions"], d["signals"]] for d in deployments]


class Fig9SingleHost:
    """Fig. 9: one host, Spark LR on 12 workers beside four antagonists,
    under no control, static caps and PerfCloud."""

    name = "fig9_single_host"
    interval_steps = 5

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seeds = derive_seeds(seed, 1 if tiny else 4, salt=9)
        self.size_mb = 320.0 if tiny else 1280.0

    def run(self, probe):
        from repro.experiments import figures

        return figures.fig9(seeds=self.seeds, size_mb=self.size_mb, workers=0)

    def judge(self, result, deployments):
        # fig9 itself raises when a job misses its horizon.
        problems = high_throttled(deployments)
        material = {
            "jct": result.jct, "improvement": result.improvement,
            "io_signal": result.io_signal, "cpi_signal": result.cpi_signal,
            "antagonist_work": result.antagonist_work,
            "deployments": deployment_material(deployments),
        }
        reduction = result.improvement["perfcloud"]
        kept = result.antagonist_work["perfcloud"]
        model = {
            "jct_reduction": reduction,
            "antagonist_work_kept": (kept["fio_ops"] + kept["stream_bytes"]) / 2,
            "paper_gap_pp": abs(reduction - PAPER_FIG9_JCT_REDUCTION) * 100,
            # Every low-priority VM in Fig. 9 is one of its antagonists.
            **isolation_scores(deployments, lambda vm: True),
        }
        return digest(material), problems, model


class Fig11Mix:
    """Fig. 11 at a scale model: MapReduce + Spark job mix on small
    hosts, randomly placed fio/STREAM pairs, LATE against PerfCloud."""

    name = "fig11_mix"
    interval_steps = 5
    schemes = ("late", "perfcloud")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = derive_seeds(seed, 1, salt=11)[0]
        if tiny:
            self.dims = dict(num_hosts=1, num_workers=4, num_mr_jobs=1,
                             num_spark_jobs=1, num_antagonist_pairs=1,
                             horizon=1500.0)
        else:
            # One host of 8 guests (6 workers, one fio/STREAM pair), so
            # no seed-drawn placement decides the per-host row counts.
            # The jobs finish within ~700 s; the horizon keeps their
            # seed-dependent share of the host time and of the interval
            # percentiles small while antagonists and agents run on.
            self.dims = dict(num_hosts=1, num_workers=6, num_mr_jobs=2,
                             num_spark_jobs=2, num_antagonist_pairs=1,
                             horizon=6000.0)

    def run(self, probe):
        from repro.experiments import figures

        return figures.fig11(seed=self.seed, schemes=self.schemes,
                             workers=0, **self.dims)

    def judge(self, result, deployments):
        problems = high_throttled(deployments)
        for scheme in self.schemes:
            # fig11 drops jobs unfinished at the horizon (in either the
            # scheme or the ideal run) from its degradation lists.
            for kind, degs, want in (
                ("mapreduce", result.mr_degradation, self.dims["num_mr_jobs"]),
                ("spark", result.spark_degradation, self.dims["num_spark_jobs"]),
            ):
                if len(degs[scheme]) != want:
                    problems.append(f"{scheme}: {want - len(degs[scheme])} "
                                    f"{kind} jobs unfinished at the horizon")
        material = {
            "mr": result.mr_degradation, "spark": result.spark_degradation,
            "efficiency": result.efficiency,
            "deployments": deployment_material(deployments),
        }

        def mean_norm_jct(scheme):
            degs = result.mr_degradation[scheme] + result.spark_degradation[scheme]
            return float(np.mean([1.0 + d for d in degs])) if degs else float("nan")

        model = {
            "jct_reduction": 1.0 - mean_norm_jct("perfcloud") / mean_norm_jct("late"),
            "task_efficiency": result.efficiency["perfcloud"],
            "late_task_efficiency": result.efficiency["late"],
            **isolation_scores(deployments, lambda vm: True),
        }
        return digest(material), problems, model


class _Fleet:
    """A fleet built with the public API and stepped for N intervals."""

    interval_steps = 5

    def __init__(self, seed: int, shard_workers: int, hosts: int,
                 intervals: int) -> None:
        self.seed = seed
        self.hosts = hosts
        self.intervals = intervals
        self.shard_workers = shard_workers

    def populate(self, cloud, rng) -> Dict[str, str]:
        raise NotImplementedError

    def run(self, probe):
        from repro.cloud.nova import CloudManager
        from repro.core.perfcloud import PerfCloud
        from repro.sim.engine import Simulator
        from repro.virt.cluster import Cluster

        t0 = time.perf_counter()
        rng = np.random.default_rng([self.seed, 17])
        sim = Simulator(dt=1.0, seed=int(rng.integers(0, 2**31 - 1)))
        cluster = Cluster(sim)
        for i in range(self.hosts):
            cluster.add_host(f"server{i:04d}")
        cloud = CloudManager(cluster)
        kinds = self.populate(cloud, rng)
        pc = PerfCloud(sim, cloud, shard_workers=self.shard_workers)
        probe.setup_s += time.perf_counter() - t0
        try:
            sim.run_for(self.intervals * pc.config.interval_s)
        finally:
            pc.close()
        return kinds


class FleetDeviating(_Fleet):
    """Every host: a three-VM victim app, one episodic fio or STREAM
    antagonist and one idle low-priority bystander."""

    name = "fleet_deviating"

    def __init__(self, seed: int, tiny: bool = False,
                 shard_workers: int = 0) -> None:
        super().__init__(seed, shard_workers,
                         hosts=4 if tiny else 48, intervals=12 if tiny else 100)

    def populate(self, cloud, rng) -> Dict[str, str]:
        from repro.virt.vm import Priority
        from repro.workloads.antagonists import (
            FioRandomRead, StreamBenchmark, SysbenchCpu, SysbenchOltp)

        sim = cloud.cluster.sim
        kinds = {}
        for host in cloud.hosts():
            i = host[len("server"):]
            # Two I/O-bound database VMs and a CPU-bound one: fio skews
            # their iowait ratios apart and STREAM their CPIs, so both
            # the io and the cpi detection paths fire.
            for j, driver in enumerate((SysbenchOltp(duration_s=None),
                                        SysbenchOltp(duration_s=None),
                                        SysbenchCpu())):
                vm = cloud.boot(f"app{i}-{j}", "m1.large", priority=Priority.HIGH,
                                app_id="victim", host=host)
                vm.attach_workload(driver)
            kind = "fio" if rng.random() < 0.5 else "stream"
            on_s = float(rng.integers(30, 61))
            off_s = float(rng.integers(20, 41))
            start = float(rng.integers(0, 60))
            if kind == "fio":
                vm = cloud.boot(f"ant{i}", "m1.large", host=host)
                driver = FioRandomRead(on_s=on_s, off_s=off_s)
            else:
                vm = cloud.boot(f"ant{i}", "m1.2xlarge", host=host)
                driver = StreamBenchmark(on_s=on_s, off_s=off_s)
            sim.schedule_at(start, lambda vm=vm, d=driver: vm.attach_workload(d),
                            name=f"start-ant{i}")
            kinds[f"ant{i}"] = kind
            cloud.boot(f"idle{i}", "m1.large", host=host)
        return kinds

    def judge(self, kinds, deployments):
        problems = high_throttled(deployments)
        caps = throttled(deployments)
        model = isolation_scores(deployments, lambda vm: vm in kinds)
        for kind in ("fio", "stream"):
            names = [vm for vm, k in kinds.items() if k == kind]
            model[f"{kind}_hosts"] = len(names)
            model[f"{kind}_throttled"] = sum(1 for vm in names if vm in caps)
        model["antagonist_throttled_frac"] = model["throttle_recall"]
        material = {"kinds": kinds, "deployments": deployment_material(deployments)}
        return digest(material), problems, model


class FleetQuiet(_Fleet):
    """Every host: one idle high-priority VM and two idle low ones."""

    name = "fleet_quiet"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, 0,
                         hosts=20 if tiny else 200, intervals=4 if tiny else 100)

    def populate(self, cloud, rng) -> Dict[str, str]:
        from repro.virt.vm import Priority

        for host in cloud.hosts():
            i = host[len("server"):]
            cloud.boot(f"app{i}", "m1.large", priority=Priority.HIGH,
                       app_id="app", host=host)
            for j in range(2):
                cloud.boot(f"low{i}-{j}", "m1.large", host=host)
        return {}

    def judge(self, kinds, deployments):
        problems = high_throttled(deployments)
        acted = sum(len(d["actions"]) for d in deployments)
        if acted:
            problems.append(f"quiet fleet actuated {acted} times")
        material = {"deployments": deployment_material(deployments)}
        model = isolation_scores(deployments, lambda vm: False)
        model["actuations"] = acted
        return digest(material), problems, model


WORKLOADS = {w.name: w for w in (Fig9SingleHost, Fig11Mix, FleetDeviating, FleetQuiet)}

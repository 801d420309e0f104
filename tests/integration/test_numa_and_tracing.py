"""Integration tests: NUMA isolation end-to-end and tracer consistency."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.harness import TestbedConfig, build_testbed, run_until
from repro.obs.tracer import MetricTracer
from repro.hardware.numa import NumaMemorySystem, numa_isolate
from repro.hardware.specs import R630
from repro.workloads.datagen import sparkbench_synthetic
from repro.workloads.sparkbench import logistic_regression


def _numa_run(isolate: bool, seed: int = 7) -> float:
    spec = replace(R630, numa_sockets=2)
    testbed = build_testbed(
        TestbedConfig(seed=seed, num_workers=6, framework="spark",
                      antagonists=(("stream", None),), host_specs=[spec])
    )
    host = testbed.cluster.hosts["server00"]
    assert isinstance(host.memsys, NumaMemorySystem)
    if isolate:
        numa_isolate(host.memsys, [w.name for w in testbed.workers], ["stream"])
    app = testbed.spark.submit(
        logistic_regression(), sparkbench_synthetic("lr", 640)
    )
    assert run_until(testbed.sim, lambda: app.completion_time is not None, 8000)
    return app.completion_time


def test_numa_isolation_shields_the_application():
    seeds = (3, 7)
    interleaved = np.mean([_numa_run(False, s) for s in seeds])
    isolated = np.mean([_numa_run(True, s) for s in seeds])
    assert isolated < interleaved * 0.8


def test_tracer_counters_match_cgroup_truth():
    testbed = build_testbed(
        TestbedConfig(seed=5, num_workers=3, framework="mapreduce",
                      antagonists=(("fio", None),))
    )
    tracer = MetricTracer(testbed.sim, testbed.cluster, interval_s=5.0)
    from repro.workloads.datagen import teragen
    from repro.workloads.puma import terasort

    job = testbed.jobtracker.submit(terasort(), teragen(192), 3)
    assert run_until(testbed.sim, lambda: job.completion_time is not None, 4000)
    tracer.stop()
    vm = testbed.workers[0]
    # Last traced cumulative value can't exceed the live counter, and the
    # trace must be monotone.
    series = tracer.vm_series(vm.name, "io_serviced")
    values = [v for _, v in series]
    assert values == sorted(values)
    assert values[-1] <= vm.cgroup.blkio.io_serviced + 1e-6


def test_numa_host_still_detectable_by_perfcloud():
    """PerfCloud detection works unchanged on a NUMA host (same counters)."""
    spec = replace(R630, numa_sockets=2)
    testbed = build_testbed(
        TestbedConfig(seed=7, num_workers=6, framework="mapreduce",
                      antagonists=(("fio", None),), host_specs=[spec])
    )
    testbed.deploy_perfcloud()
    from repro.workloads.datagen import teragen
    from repro.workloads.puma import terasort

    job = testbed.jobtracker.submit(terasort(), teragen(640), 10)
    assert run_until(testbed.sim, lambda: job.completion_time is not None, 6000)
    nm = testbed.node_manager()
    assert max(nm.detector.signal("app", "io").values()) > nm.config.h_io
    assert any(vm == "fio" for (_, vm, res, _) in nm.actions)

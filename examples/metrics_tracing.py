#!/usr/bin/env python3
"""Export raw testbed metrics for your own analysis/plots.

Attaches a :class:`~repro.obs.tracer.MetricTracer` to the
quickstart scenario, runs it, and writes both CSV and JSON traces —
per-VM cumulative counters (exactly what PerfCloud's monitor reads via
libvirt) plus simulator-side truth (device utilizations).

It then recomputes the paper's detection signal *offline* from the
exported counters, demonstrating that the trace carries everything the
online system saw.

Run:  python examples/metrics_tracing.py [out_dir]
"""

import sys

import numpy as np

from repro import (
    CloudManager,
    Cluster,
    FioRandomRead,
    HdfsCluster,
    JobTracker,
    Priority,
    Simulator,
    teragen,
    terasort,
)
from repro.obs.tracer import MetricTracer


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "/tmp"

    sim = Simulator(dt=1.0, seed=7)
    cluster = Cluster(sim)
    cluster.add_host("server0")
    cloud = CloudManager(cluster)
    workers = cloud.boot_many("hdp", 6, priority=Priority.HIGH, app_id="hadoop")
    hdfs = HdfsCluster([w.name for w in workers], sim.rng.stream("hdfs"))
    jt = JobTracker(sim, workers, hdfs)
    fio_vm = cloud.boot("noisy")
    fio_vm.attach_workload(FioRandomRead())

    tracer = MetricTracer(sim, cluster, interval_s=5.0)
    job = jt.submit(terasort(), teragen(640), num_reducers=10)
    sim.run(150)
    tracer.stop()

    csv_path = f"{out_dir}/perfcloud_trace.csv"
    json_path = f"{out_dir}/perfcloud_trace.json"
    tracer.to_csv(csv_path)
    tracer.to_json(json_path)
    print(f"wrote {len(tracer.rows)} rows to {csv_path} and {json_path}")
    print(f"terasort JCT: {job.completion_time:.0f}s (fio uncapped)\n")

    # Recompute the paper's I/O detection signal offline from the trace.
    print("offline recomputation of the iowait-ratio deviation (threshold 10):")
    times = sorted({r["time"] for r in tracer.rows})
    names = [w.name for w in workers]
    print(f"  {'t':>5}  {'std of iowait ratio':>20}")
    for t1, t2 in zip(times, times[1:]):
        ratios = []
        for name in names:
            d_wait = (dict_at(tracer, name, t2)["io_wait_time_ms"]
                      - dict_at(tracer, name, t1)["io_wait_time_ms"])
            d_ops = (dict_at(tracer, name, t2)["io_serviced"]
                     - dict_at(tracer, name, t1)["io_serviced"])
            ratios.append(d_wait / d_ops if d_ops > 0 else 0.0)
        std = float(np.std(ratios))
        flag = "  <-- contention" if std > 10 else ""
        print(f"  {t2:5.0f}  {std:20.2f}{flag}")


def dict_at(tracer: MetricTracer, vm: str, t: float) -> dict:
    for row in tracer.rows:
        if row["vm"] == vm and row["time"] == t:
            return row
    raise KeyError((vm, t))


if __name__ == "__main__":
    main()

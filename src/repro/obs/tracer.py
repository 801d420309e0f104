"""Metric tracing: record per-interval testbed state for offline analysis.

A :class:`MetricTracer` samples host and VM state on a fixed cadence and
accumulates rows that can be exported as CSV or JSON — the raw material
for custom plots beyond the canned figure runners.  It reads the same
surfaces PerfCloud does (cgroup counters through libvirt, device
utilizations) plus simulator-side truth that a real deployment would not
have (useful for validating the monitor itself).

Lives in the obs layer so the repo has one sampling surface.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster

__all__ = ["MetricTracer"]

_FIELDS = [
    "time",
    "host",
    "vm",
    "io_serviced",
    "io_wait_time_ms",
    "io_service_bytes",
    "cpu_core_seconds",
    "cycles",
    "instructions",
    "llc_misses",
    "disk_utilization",
    "bw_utilization",
    "cpu_utilization",
]


class MetricTracer:
    """Periodic recorder of per-VM counters and per-host utilizations."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        *,
        interval_s: float = 5.0,
        hosts: Optional[List[str]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.hosts = hosts
        self.rows: List[Dict[str, float]] = []
        self._task = sim.every(interval_s, self.sample, name="metric-tracer")

    def stop(self) -> None:
        """Stop sampling (recorded rows remain available)."""
        self._task.stop()

    # ---------------------------------------------------------------- sample
    def sample(self) -> None:
        """Record one row per VM (cumulative counters + host state)."""
        now = self.sim.now
        for host_name in sorted(self.cluster.hosts):
            if self.hosts is not None and host_name not in self.hosts:
                continue
            host = self.cluster.hosts[host_name]
            disk_util = host.disk.utilization
            bw_util = host.memsys.bw_utilization
            cpu_util = host.cpu_utilization
            for vm in self.cluster.vms_on_host(host_name):
                snap = vm.cgroup.snapshot()
                self.rows.append(
                    {
                        "time": now,
                        "host": host_name,
                        "vm": vm.name,
                        "io_serviced": snap["io_serviced"],
                        "io_wait_time_ms": snap["io_wait_time_ms"],
                        "io_service_bytes": snap["io_service_bytes"],
                        "cpu_core_seconds": snap["cpu_usage_core_seconds"],
                        "cycles": snap["cycles"],
                        "instructions": snap["instructions"],
                        "llc_misses": snap["llc_misses"],
                        "disk_utilization": disk_util,
                        "bw_utilization": bw_util,
                        "cpu_utilization": cpu_util,
                    }
                )

    # ---------------------------------------------------------------- export
    def to_csv(self, path: Optional[str] = None) -> str:
        """Render rows as CSV; write to ``path`` when given."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_FIELDS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_json(self, path: Optional[str] = None) -> str:
        """Render rows as JSON; write to ``path`` when given."""
        text = json.dumps(self.rows, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def vm_series(self, vm: str, field: str) -> List[tuple]:
        """(time, value) pairs of one field for one VM."""
        if field not in _FIELDS:
            raise KeyError(f"unknown field {field!r}; know {_FIELDS}")
        return [(r["time"], r[field]) for r in self.rows if r["vm"] == vm]

    def deltas(self, vm: str, field: str) -> List[tuple]:
        """Per-interval deltas of a cumulative counter for one VM."""
        series = self.vm_series(vm, field)
        return [
            (t2, v2 - v1) for (t1, v1), (t2, v2) in zip(series, series[1:])
        ]

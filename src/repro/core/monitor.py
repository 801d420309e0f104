"""Performance monitor: cumulative counters → smoothed interval metrics.

Mirrors §III-D1: "The performance monitor periodically measures the
``blkio.io_wait_time``, ``blkio.io_serviced``, and CPI metrics for each
VM belonging to a high-priority data-intensive application hosted on the
physical server.  It also measures the I/O throughput in terms of
``blkio.io_service_bytes``, LLC miss rate, and CPU usage for each
low-priority VM colocated on the same server. [...] Since these metrics
provide cumulative values from the time the VMs were booted, we
calculate the delta values between consecutive measurement intervals.
[...] applies an exponentially weighted moving average (EWMA) technique
to smooth out short-term variations in the data collected over 5 second
intervals."

The monitor talks exclusively to the libvirt facade — it would run
unchanged against real libvirt.  Each pass is one batched
``getAllDomainStats()`` read (``virConnectGetAllDomainStats``): one
``(domain, counters)`` record per guest.  It is hardened against a
degraded facade: a domain whose read failed comes back with an empty
record and drops that VM for the interval (never the whole pass), and the
VM's next delta is divided by every interval it spans, so a lost sample
never inflates a rate; a cumulative counter running backwards (guest
reboot) restarts that VM's delta cursor instead of emitting garbage; and
both the per-VM cursor *and* the sample history are purged when a VM
leaves the host.

Storage: one :class:`~repro.metrics.plane.MetricPlane` per monitor.  The
whole interval lands as a single batched ``ingest(now, columns)`` call —
one plane row across every (VM, metric) cell — instead of 5 TimeSeries
appends per VM; ``history`` exposes the same dict-of-dicts read API as
before via stable :class:`~repro.metrics.plane.PlaneSeries` facades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import PerfCloudConfig
from repro.metrics.ewma import Ewma
from repro.metrics.plane import MetricPlane, PlaneSeries
from repro.metrics.stats import safe_ratio
from repro.virt.libvirt_api import Connection, LibvirtError

__all__ = ["MonitorStats", "VmSample", "PerformanceMonitor", "PLANE_METRICS"]

#: The per-VM metric columns every monitor plane stores.
PLANE_METRICS = (
    "iowait_ratio",
    "cpi",
    "io_bytes_ps",
    "llc_miss_rate",
    "cpu_usage_cores",
)


@dataclass
class MonitorStats:
    """Degraded-telemetry counters (all zero on a healthy facade)."""

    #: Whole sampling passes lost to a failed domain listing.
    list_failures: int = 0
    #: Per-VM samples dropped to a stats-read failure.
    samples_dropped: int = 0
    #: Cumulative-counter resets detected (delta cursor restarted).
    counter_resets: int = 0
    #: Departed-VM history entries purged.
    histories_purged: int = 0
    #: Stale samples pruned by the retention window.
    samples_pruned: int = 0


@dataclass
class VmSample:
    """Smoothed per-interval metrics of one VM."""

    time: float
    #: blkio.io_wait_time / blkio.io_serviced over the interval, ms/op.
    iowait_ratio: float
    #: Interval CPI (delta cycles / delta instructions); 0 if idle.
    cpi: float
    #: Interval I/O throughput, bytes/second.
    io_bytes_ps: float
    #: Interval LLC miss rate, misses/second; None when the cgroup ran
    #: nothing (no events counted — the missing-sample case of §III-B).
    llc_miss_rate: Optional[float]
    #: Interval CPU usage, cores.
    cpu_usage_cores: float


class _VmMonitorState:
    """Per-VM cursor over cumulative counters plus EWMA filters.

    The cursor is the VM's previous ``getAllDomainStats`` record and the
    time it was read.
    """

    __slots__ = ("prev", "prev_time", "iowait", "cpi", "io_bytes", "llc", "cpu")

    def __init__(self, alpha: float) -> None:
        self.prev: Optional[Dict[str, float]] = None
        #: When ``prev`` was read.
        self.prev_time = 0.0
        self.iowait = Ewma(alpha)
        self.cpi = Ewma(alpha)
        self.io_bytes = Ewma(alpha)
        self.llc = Ewma(alpha)
        self.cpu = Ewma(alpha)


class PerformanceMonitor:
    """Samples every VM on one host through the libvirt connection."""

    def __init__(
        self,
        conn: Connection,
        config: PerfCloudConfig,
    ) -> None:
        self.conn = conn
        self.config = config
        self._state: Dict[str, _VmMonitorState] = {}
        #: Columnar store of every (metric, VM) sample on this host.
        self.plane = MetricPlane(PLANE_METRICS)
        #: Full sample history per VM (a stable PlaneSeries per metric),
        #: for the identifier and for experiment reporting.
        self.history: Dict[str, Dict[str, PlaneSeries]] = {}
        self.stats = MonitorStats()

    def sample(self, now: float) -> Dict[str, VmSample]:
        """Collect one interval's smoothed metrics for every domain.

        A failing domain costs only its own sample: faults are isolated
        per VM, and a failed listing costs one pass (no purging happens
        on a pass whose inventory is unknown).  All samples land in the
        metric plane as one batched row ingest.
        """
        out: Dict[str, VmSample] = {}
        try:
            records = self.conn.getAllDomainStats()
        except LibvirtError:
            self.stats.list_failures += 1
            return out
        columns: Dict[str, Dict[str, float]] = {}
        present = set()
        interval = self.config.interval_s
        for dom, cur in records:
            name = dom.name()
            present.add(name)
            if not cur:
                self.stats.samples_dropped += 1
                continue
            st = self._state.get(name)
            if st is None:
                st = _VmMonitorState(self.config.ewma_alpha)
                self._state[name] = st
                self.history[name] = {
                    k: self.plane.series(name, k) for k in PLANE_METRICS
                }
            prev = st.prev
            prev_time = st.prev_time
            st.prev = cur
            st.prev_time = now
            if prev is None:
                continue  # first observation: no delta yet

            # The delta spans every control interval since this VM's
            # previous record: after a failed listing, a dropped read or
            # a breaker refusal it covers two or more.  A fault-free
            # interval divides by exactly ``interval_s``.
            dt = interval * max(1, round((now - prev_time) / interval))
            # Deltas in blkio, perf, cpu order; ``lowest`` tracks their
            # minimum with the very ``<`` comparisons ``min()`` makes.
            ops = cur["io_serviced"] - prev["io_serviced"]
            lowest = ops
            wait = cur["io_wait_time_ms"] - prev["io_wait_time_ms"]
            if wait < lowest:
                lowest = wait
            io_bytes = cur["io_service_bytes"] - prev["io_service_bytes"]
            if io_bytes < lowest:
                lowest = io_bytes
            cycles = cur["cycles"] - prev["cycles"]
            if cycles < lowest:
                lowest = cycles
            instr = cur["instructions"] - prev["instructions"]
            if instr < lowest:
                lowest = instr
            refs = cur["llc_references"] - prev["llc_references"]
            if refs < lowest:
                lowest = refs
            misses = cur["llc_misses"] - prev["llc_misses"]
            if misses < lowest:
                lowest = misses
            cpu_time = cur["cpu_time_core_seconds"] - prev["cpu_time_core_seconds"]
            if cpu_time < lowest:
                lowest = cpu_time
            if lowest < -1e-6:
                # Cumulative counters ran backwards: the guest rebooted
                # (or the hypervisor reset its accounting).  Restart the
                # cursor from this observation; the next interval yields
                # a sane delta again.
                self.stats.counter_resets += 1
                continue

            active = instr > 0
            sample = VmSample(
                time=now,
                iowait_ratio=st.iowait.update(safe_ratio(wait, ops, 0.0)),
                cpi=st.cpi.update(safe_ratio(cycles, instr, 0.0)) if active else 0.0,
                io_bytes_ps=st.io_bytes.update(io_bytes / dt),
                llc_miss_rate=st.llc.update(misses / dt) if active else None,
                cpu_usage_cores=st.cpu.update(cpu_time / dt),
            )
            out[name] = sample
            col = columns[name] = {
                "iowait_ratio": sample.iowait_ratio,
                "cpi": sample.cpi,
                "io_bytes_ps": sample.io_bytes_ps,
                "cpu_usage_cores": sample.cpu_usage_cores,
            }
            if active:
                col["llc_miss_rate"] = sample.llc_miss_rate
        if columns:
            self.plane.ingest(now, columns)
        # Forget VMs that left the host (migration / destroy): cursor,
        # EWMA state *and* sample history — a long-lived daemon must not
        # accumulate history for every VM that ever passed through.
        for gone in set(self._state) - present:
            del self._state[gone]
        for gone in set(self.history) - present:
            del self.history[gone]
            self.plane.remove_vm(gone)
            self.stats.histories_purged += 1
        retention = self.config.history_retention_s
        if retention is not None:
            self.stats.samples_pruned += self.plane.prune_before(now - retention)
        return out

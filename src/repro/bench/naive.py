"""Reference implementations of the optimized hot paths.

These replicate, line for line, the shapes the code had before the
vectorization pass: a deque-backed time series whose every lookup
converts the full history, per-suspect Pearson alignment that rebuilds
arrays per instant, rolling deviation stats recomputed from the tail
each interval, and a cluster step that resolves every host through the
scalar ``PhysicalHost.step_local``.  They serve two purposes:

* the **property tests** check the optimized implementations against
  them over randomized sample streams (they are the behavioral oracle);
* the **micro benchmarks** measure the speedup of the optimized paths
  relative to them, a machine-independent ratio the CI gate can check.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.metrics.correlation import MissingPolicy, pearson
from repro.metrics.stats import safe_ratio
from repro.metrics.timeseries import TimeSeries
from repro.virt.libvirt_api import LibvirtError

__all__ = [
    "NaiveMonitor",
    "NaiveTimeSeries",
    "naive_aligned_pearson",
    "naive_cluster_step",
    "naive_fabric_allocate",
    "naive_history_ingest",
    "naive_rolling_tail_stats",
]

_LOOPBACK_BPS = 40e9  # intra-host copies: effectively memory bandwidth


def naive_fabric_allocate(
    nic: Mapping[str, float], flows: list, dt: float
) -> Tuple[List[float], dict]:
    """The pre-vectorization fabric loop, verbatim: per-flow dict
    accumulation of NIC loads, iterated proportional scaling, and a final
    full re-accumulation for the utilization gauges.  Returns
    ``(bytes_delivered, utilization)`` so both outputs of
    :meth:`~repro.hardware.network.NetworkFabric.allocate` can be checked
    against it."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not flows:
        return [], {}
    for f in flows:
        if f.bytes_per_s < 0:
            raise ValueError(f"negative flow demand: {f!r}")
        for h in (f.src_host, f.dst_host):
            if h not in nic:
                raise KeyError(f"unknown host in flow: {h!r}")

    rates = [f.bytes_per_s for f in flows]
    for _ in range(8):
        egress: dict = {}
        ingress: dict = {}
        for f, r in zip(flows, rates):
            if f.intra_host:
                continue
            egress[f.src_host] = egress.get(f.src_host, 0.0) + r
            ingress[f.dst_host] = ingress.get(f.dst_host, 0.0) + r
        worst = 1.0
        for host, tot in egress.items():
            worst = max(worst, tot / nic[host])
        for host, tot in ingress.items():
            worst = max(worst, tot / nic[host])
        if worst <= 1.0 + 1e-9:
            break
        new_rates = []
        for f, r in zip(flows, rates):
            if f.intra_host:
                new_rates.append(min(r, _LOOPBACK_BPS))
                continue
            rho = max(
                egress.get(f.src_host, 0.0) / nic[f.src_host],
                ingress.get(f.dst_host, 0.0) / nic[f.dst_host],
            )
            new_rates.append(r / rho if rho > 1.0 else r)
        rates = new_rates

    egress = {h: 0.0 for h in nic}
    ingress = {h: 0.0 for h in nic}
    for f, r in zip(flows, rates):
        if f.intra_host:
            continue
        egress[f.src_host] += r
        ingress[f.dst_host] += r
    utilization = {
        h: (egress[h] / nic[h], ingress[h] / nic[h]) for h in nic
    }
    return [r * dt for r in rates], utilization


def naive_cluster_step(cluster, dt: float) -> dict:
    """One fluid step of ``cluster`` with every host on the scalar path.

    The oracle for :meth:`repro.virt.cluster.Cluster.step`: each host
    (sorted by name) resolves its guests through
    :meth:`~repro.hardware.host.PhysicalHost.step_local`, flow demands go
    to the fabric in host-then-row order, and every grant is delivered.
    Returns the grants by VM name.
    """
    from repro.hardware.network import Flow

    grants: dict = {}
    flows: list = []
    owners: list = []
    for host_name, host in sorted(cluster.hosts.items()):
        res = host.step_local(dt)
        grants.update(res.grants)
        for demander, fd in res.flow_demands:
            peer = cluster.vms.get(fd.peer_vm)
            if peer is None or peer.host_name is None:
                continue
            if fd.direction == "out":
                ends = (demander, fd.peer_vm, host_name, peer.host_name)
            else:
                ends = (fd.peer_vm, demander, peer.host_name, host_name)
            flows.append(Flow(*ends, bytes_per_s=fd.bytes_per_s))
            owners.append((demander, fd.peer_vm))
    for (demander, peer), got in zip(owners, cluster.fabric.allocate(flows, dt)):
        nb = grants[demander].net_bytes
        nb[peer] = nb.get(peer, 0.0) + got
    for host_name, host in sorted(cluster.hosts.items()):
        for name in host.guest_names():
            cluster.vms[name].deliver(grants[name])
    cluster.steps += 1
    return grants


class NaiveTimeSeries:
    """Deque-backed (time, value) store — the pre-optimization layout."""

    def __init__(self, capacity: int = 4096, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        self.name = name
        self._times: Deque[float] = deque(maxlen=self.capacity)
        self._values: Deque[float] = deque(maxlen=self.capacity)

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1] - 1e-9:
            raise ValueError(
                f"non-monotonic append to {self.name or 'series'}: "
                f"{time!r} after {self._times[-1]!r}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def extend(self, samples: Iterable[Tuple[float, float]]) -> None:
        for t, v in samples:
            self.append(t, v)

    def prune_before(self, cutoff: float) -> int:
        dropped = 0
        while self._times and self._times[0] < cutoff - 1e-9:
            self._times.popleft()
            self._values.popleft()
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self._times)

    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def tail(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        if n <= 0:
            return np.empty(0), np.empty(0)
        t = list(self._times)[-n:]
        v = list(self._values)[-n:]
        return np.asarray(t, dtype=float), np.asarray(v, dtype=float)

    def window(self, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        t = self.times()
        v = self.values()
        mask = (t >= start - 1e-9) & (t <= end + 1e-9)
        return t[mask], v[mask]

    def value_at(self, time: float, tolerance: float = 1e-6) -> Optional[float]:
        t = self.times()
        if t.size == 0:
            return None
        idx = int(np.argmin(np.abs(t - time)))
        if abs(t[idx] - time) <= tolerance:
            return float(self.values()[idx])
        return None

    def resampled_at(self, times: Iterable[float], missing: float = 0.0) -> np.ndarray:
        out: List[float] = []
        for t in times:
            v = self.value_at(t)
            out.append(missing if v is None else v)
        return np.asarray(out, dtype=float)


def naive_aligned_pearson(
    victim: NaiveTimeSeries,
    suspect: NaiveTimeSeries,
    *,
    window: int = 12,
    policy: MissingPolicy = MissingPolicy.ZERO,
) -> float:
    """Per-suspect alignment exactly as the pre-vectorization code did it."""
    times, v_vals = victim.tail(window)
    if times.size < 2:
        return 0.0
    if policy is MissingPolicy.ZERO:
        s_vals = suspect.resampled_at(times, missing=0.0)
        return pearson(v_vals, s_vals)
    keep_v: List[float] = []
    keep_s: List[float] = []
    for t, v in zip(times, v_vals):
        sv = suspect.value_at(t)
        if sv is not None:
            keep_v.append(v)
            keep_s.append(sv)
    return pearson(keep_v, keep_s)


def naive_identify_scores(
    victim: NaiveTimeSeries,
    suspects: Mapping[str, NaiveTimeSeries],
    *,
    window: int = 12,
    policy: MissingPolicy = MissingPolicy.ZERO,
) -> dict:
    """One identifier interval, the pre-vectorization way: a Python loop of
    full-history rebuilds per suspect."""
    return {
        name: naive_aligned_pearson(victim, series, window=window, policy=policy)
        for name, series in suspects.items()
    }


def naive_history_ingest(history: dict, now: float, samples: Mapping) -> None:
    """The pre-columnar monitor write path: one row-store append per
    (VM, metric) cell, creating series lazily — exactly the shape the
    monitor had before the :class:`~repro.metrics.plane.MetricPlane`
    batched the whole interval into one column write."""
    for vm, column in samples.items():
        series = history.get(vm)
        if series is None:
            series = history[vm] = {}
        for metric, value in column.items():
            ts = series.get(metric)
            if ts is None:
                ts = series[metric] = TimeSeries(name=f"{vm}.{metric}")
            ts.append(now, value)


def naive_rolling_tail_stats(values: List[float], window: int) -> Tuple[float, float]:
    """(mean, population std) of the last ``window`` values, from scratch."""
    tail = np.asarray(values[-window:], dtype=float)
    if tail.size == 0:
        return 0.0, 0.0
    mean = float(tail.mean())
    std = float(tail.std()) if tail.size >= 2 else 0.0
    return mean, std


class _NaiveEwma:
    """The EWMA filter as first written: ``np.isfinite`` on a float."""

    def __init__(self, alpha: float) -> None:
        self.alpha = float(alpha)
        self._state: Optional[float] = None

    def update(self, sample: float) -> float:
        x = float(sample)
        if not np.isfinite(x):
            raise ValueError(f"EWMA update with non-finite sample {sample!r}")
        if self._state is None:
            self._state = x
        else:
            self._state = self.alpha * x + (1.0 - self.alpha) * self._state
        return self._state


class NaiveMonitor:
    """The monitor's per-VM sampling loop as first written: three
    per-domain facade reads per VM, fresh counter and delta dicts every
    interval and a separate ``min()`` pass over the deltas.  Behind the
    fault injector and the breaker those reads are exactly the calls, in
    the same order, that
    :class:`~repro.core.monitor.PerformanceMonitor`'s batched
    ``getAllDomainStats`` read makes.  Returns, per interval, each VM's
    smoothed ``(iowait_ratio, cpi, io_bytes_ps, llc_miss_rate,
    cpu_usage_cores)`` — the values the monitor's ``VmSample`` and
    metric-plane cells carry.  Like the monitor, it divides a delta by
    every control interval it spans."""

    def __init__(self, conn, config) -> None:
        self.conn = conn
        self.config = config
        self._prev: dict = {}
        self._ewma: dict = {}
        self.list_failures = 0
        self.samples_dropped = 0
        self.counter_resets = 0

    def sample(self, now: float) -> dict:
        out: dict = {}
        try:
            domains = self.conn.listAllDomains()
        except LibvirtError:
            self.list_failures += 1
            return out
        present = set()
        for dom in domains:
            name = dom.name()
            present.add(name)
            try:
                raw = dom.blkioStats()
                perf = dom.perfStats()
                cpu = dom.cpuStats()
            except LibvirtError:
                self.samples_dropped += 1
                continue
            counters = {}
            counters.update(raw)
            counters.update(perf)
            counters.update(cpu)
            prev, prev_time = self._prev.get(name, (None, 0.0))
            self._prev[name] = (counters, now)
            if prev is None:
                self._ewma[name] = [_NaiveEwma(self.config.ewma_alpha)
                                    for _ in range(5)]
                continue
            # Rates over every interval since the previous snapshot.
            dt = self.config.interval_s * max(
                1, round((now - prev_time) / self.config.interval_s))
            d = {k: v - prev.get(k, 0.0) for k, v in counters.items()}
            if min(d.values()) < -1e-6:
                self.counter_resets += 1
                continue
            iowait, cpi_f, io_f, llc_f, cpu_f = self._ewma[name]
            active = d["instructions"] > 0
            llc_rate = d["llc_misses"] / dt if active else None
            out[name] = (
                iowait.update(safe_ratio(d["io_wait_time_ms"], d["io_serviced"], 0.0)),
                cpi_f.update(safe_ratio(d["cycles"], d["instructions"], 0.0))
                if active else 0.0,
                io_f.update(d["io_service_bytes"] / dt),
                llc_f.update(llc_rate) if llc_rate is not None else None,
                cpu_f.update(d["cpu_time_core_seconds"] / dt),
            )
        for gone in set(self._prev) - present:
            del self._prev[gone]
            self._ewma.pop(gone, None)
        return out

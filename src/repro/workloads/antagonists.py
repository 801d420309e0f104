"""Low-priority antagonist workloads from the paper's experiments.

Demand parameters are chosen so that, on the default
:class:`~repro.hardware.specs.HostSpec` (R630-like), each stressor
saturates the same shared resource as its real counterpart:

* :class:`FioRandomRead` — 4 KiB random reads at queue depth; alone it
  drives the block device to its IOPS ceiling, which is the situation the
  paper's Figures 1 and 3 create.  Its achieved IOPS is tracked so
  Fig. 1's "normalized IOPS vs. cap" series can be reproduced.
* :class:`StreamBenchmark` — the McCalpin STREAM triad: few cores, a
  working set far beyond any LLC, and as much DRAM bandwidth as it can
  get.  One instance with 8 threads pressures the memory system; the
  paper notes 16 total threads (two VMs) cause significant interference
  while one VM alone has limited effect (§III-B).
* :class:`SysbenchOltp` — read-only OLTP against a MySQL table: moderate,
  *bursty* random I/O plus CPU.  Included as a decoy suspect in the
  identification experiments (Fig. 5/6) — its I/O pattern must NOT
  correlate with the victim's contention signal.
* :class:`SysbenchCpu` — prime-number search: pure CPU, tiny working set,
  negligible I/O.  The other decoy.

:data:`ANTAGONISTS` registers the kinds testbeds and scenarios boot by name.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.hardware.resources import PerfProfile, ResourceDemand, ResourceGrant
from repro.workloads.base import RateTracker, TimedDriver

__all__ = [
    "ANTAGONISTS",
    "AdaptiveFio",
    "FioRandomRead",
    "IperfStream",
    "StreamBenchmark",
    "SysbenchOltp",
    "SysbenchCpu",
]


class FioRandomRead(TimedDriver):
    """fio random-read benchmark (``--rw=randread``), O_DIRECT, cache=none."""

    profile = PerfProfile(
        base_cpi=1.2, llc_sensitivity=0.1, bw_sensitivity=0.2, mpki_min=1.0, mpki_max=3.0
    )

    def __init__(
        self,
        iops_demand: float = 3300.0,
        block_kb: float = 4.0,
        duration_s: Optional[float] = None,
        *,
        on_s: Optional[float] = None,
        off_s: float = 0.0,
    ) -> None:
        super().__init__(duration_s, on_s=on_s, off_s=off_s)
        if iops_demand <= 0 or block_kb <= 0:
            raise ValueError("iops_demand and block_kb must be positive")
        self.iops_demand = float(iops_demand)
        self.block_bytes = block_kb * 1024.0
        self.iops = RateTracker()

    def demand(self) -> ResourceDemand:
        """Random-read appetite (zero during off-episodes)."""
        if not self.active:
            return ResourceDemand()
        return ResourceDemand(
            cpu_cores=0.5,  # submission/completion path
            read_iops=self.iops_demand,
            read_bytes_ps=self.iops_demand * self.block_bytes,
            mem_bw_gbps=0.2,
            llc_ws_mb=2.0,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Track achieved read operations."""
        self.iops.record(grant.read_ops, grant.dt)
        self._account_time(grant.dt)

    def achieved_iops(self) -> float:
        """Windowed read IOPS actually served (Fig. 1's fio series)."""
        return self.iops.rate()


class StreamBenchmark(TimedDriver):
    """STREAM triad with a multi-GB array (nothing fits in the LLC)."""

    profile = PerfProfile(
        base_cpi=1.6,
        llc_sensitivity=0.2,  # already misses everything; contention adds little
        bw_sensitivity=2.5,  # but bandwidth starvation stalls it directly
        mpki_min=25.0,
        mpki_max=30.0,
    )

    def __init__(
        self,
        threads: int = 8,
        array_gb: float = 16.0,
        bw_per_thread_gbps: float = 10.0,
        duration_s: Optional[float] = None,
        *,
        on_s: Optional[float] = None,
        off_s: float = 0.0,
    ) -> None:
        super().__init__(duration_s, on_s=on_s, off_s=off_s)
        if threads <= 0 or array_gb <= 0 or bw_per_thread_gbps <= 0:
            raise ValueError("threads, array_gb and bw_per_thread_gbps must be positive")
        self.threads = int(threads)
        self.array_gb = float(array_gb)
        self.bw_per_thread_gbps = float(bw_per_thread_gbps)
        self.bandwidth = RateTracker()

    def demand(self) -> ResourceDemand:
        """Triad appetite: cores + as much DRAM bandwidth as possible."""
        if not self.active:
            return ResourceDemand()
        return ResourceDemand(
            cpu_cores=float(self.threads),
            mem_bw_gbps=self.threads * self.bw_per_thread_gbps,
            # Streaming touches the whole array; its LLC bid is effectively
            # unbounded relative to cache size.
            llc_ws_mb=self.array_gb * 1024.0,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Track achieved DRAM traffic."""
        self.bandwidth.record(grant.mem_bytes, grant.dt)
        self._account_time(grant.dt)

    def achieved_bandwidth_gbps(self) -> float:
        """Windowed DRAM bandwidth actually moved."""
        return self.bandwidth.rate() / 1e9


class AdaptiveFio(TimedDriver):
    """A throttle-aware fio: it senses when its achieved IOPS collapses
    below its demand (a cap landed) and goes dormant until the cubic
    recovery releases it, then surges again.

    Not in the paper's antagonist set — built for the scenario corpus to
    probe the CUBIC controller against an adversary that *adapts* to
    mitigation instead of hammering steadily.  The on/off pattern it
    produces still correlates with the victim's contention signal during
    surges, so PerfCloud should keep re-identifying it; what the scenario
    measures is how much antagonist work leaks through between episodes.
    """

    profile = FioRandomRead.profile

    def __init__(
        self,
        iops_demand: float = 3300.0,
        block_kb: float = 4.0,
        duration_s: Optional[float] = None,
        *,
        backoff_ratio: float = 0.5,
        sense_s: float = 15.0,
        dormant_s: float = 90.0,
        dormant_frac: float = 0.02,
    ) -> None:
        super().__init__(duration_s)
        if iops_demand <= 0 or block_kb <= 0:
            raise ValueError("iops_demand and block_kb must be positive")
        if not 0.0 < backoff_ratio < 1.0:
            raise ValueError("backoff_ratio must be in (0, 1)")
        if sense_s <= 0 or dormant_s <= 0:
            raise ValueError("sense_s and dormant_s must be positive")
        if not 0.0 <= dormant_frac < 1.0:
            raise ValueError("dormant_frac must be in [0, 1)")
        self.iops_demand = float(iops_demand)
        self.block_bytes = block_kb * 1024.0
        self.backoff_ratio = float(backoff_ratio)
        self.sense_s = float(sense_s)
        self.dormant_s = float(dormant_s)
        self.dormant_frac = float(dormant_frac)
        self.iops = RateTracker(window_s=sense_s)
        #: Times the driver detected a cap and went dormant.
        self.backoffs = 0
        self._dormant_until: Optional[float] = None
        self._sensed_s = 0.0

    @property
    def dormant(self) -> bool:
        """Whether the driver is currently lying low."""
        return (self._dormant_until is not None
                and self.elapsed_s < self._dormant_until)

    def demand(self) -> ResourceDemand:
        """Full random-read appetite while surging, a trickle while dormant."""
        if self.finished:
            return ResourceDemand()
        iops = self.iops_demand * (self.dormant_frac if self.dormant else 1.0)
        if iops <= 0:
            return ResourceDemand()
        return ResourceDemand(
            cpu_cores=0.5,
            read_iops=iops,
            read_bytes_ps=iops * self.block_bytes,
            mem_bw_gbps=0.2,
            llc_ws_mb=2.0,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Track achieved IOPS and flip dormant when a cap is sensed."""
        self.iops.record(grant.read_ops, grant.dt)
        self._account_time(grant.dt)
        if self.dormant:
            self._sensed_s = 0.0
            return
        if self._dormant_until is not None and not self.dormant:
            self._dormant_until = None  # dormancy expired: surging again
        self._sensed_s += grant.dt
        if self._sensed_s < self.sense_s:
            return  # not enough window to judge the achieved rate yet
        if self.iops.rate() < self.backoff_ratio * self.iops_demand:
            self.backoffs += 1
            self._dormant_until = self.elapsed_s + self.dormant_s
            self._sensed_s = 0.0

    def achieved_iops(self) -> float:
        """Windowed read IOPS actually served."""
        return self.iops.rate()


class SysbenchOltp(TimedDriver):
    """sysbench OLTP read-only against a 10M-row MySQL table (§III-B).

    I/O arrives in bursts (buffer-pool hit/miss phases) modelled by a slow
    sinusoidal modulation — enough structure to be visibly *uncorrelated*
    with a colocated Hadoop job's contention signal.
    """

    profile = PerfProfile(
        base_cpi=1.4, llc_sensitivity=0.6, bw_sensitivity=0.5, mpki_min=2.0, mpki_max=8.0
    )

    def __init__(
        self,
        threads: int = 8,
        iops_scale: float = 150.0,
        burst_period_s: float = 40.0,
        duration_s: Optional[float] = 120.0,
    ) -> None:
        super().__init__(duration_s)
        if threads <= 0 or iops_scale < 0 or burst_period_s <= 0:
            raise ValueError("invalid sysbench oltp parameters")
        self.threads = int(threads)
        self.iops_scale = float(iops_scale)
        self.burst_period_s = float(burst_period_s)
        self.iops = RateTracker()

    def demand(self) -> ResourceDemand:
        """OLTP appetite with a slow sinusoidal buffer-pool burst."""
        if self.finished:
            return ResourceDemand()
        phase = 2.0 * math.pi * self.elapsed_s / self.burst_period_s
        burst = 1.0 + 0.6 * math.sin(phase)
        iops = self.iops_scale * burst
        return ResourceDemand(
            cpu_cores=min(self.threads, 2) * 0.8,
            read_iops=iops,
            read_bytes_ps=iops * 16 * 1024.0,  # 16 KiB InnoDB pages
            mem_bw_gbps=0.5,
            llc_ws_mb=12.0,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Track achieved page reads."""
        self.iops.record(grant.read_ops, grant.dt)
        self._account_time(grant.dt)


class SysbenchCpu(TimedDriver):
    """sysbench cpu: prime search up to 12M with four threads (§III-B)."""

    # The prime-search working set lives in L1/L2: its LLC miss traffic is
    # a flat trickle that does not respond to LLC occupancy pressure
    # (mpki_min == mpki_max), which is what makes it a true decoy in the
    # paper's identification study.
    profile = PerfProfile(
        base_cpi=0.8, llc_sensitivity=0.05, bw_sensitivity=0.05, mpki_min=0.12, mpki_max=0.12
    )

    def __init__(self, threads: int = 4, duration_s: Optional[float] = None) -> None:
        super().__init__(duration_s)
        if threads <= 0:
            raise ValueError("threads must be positive")
        self.threads = int(threads)
        self.cpu_time = RateTracker()

    def demand(self) -> ResourceDemand:
        """Pure CPU appetite; effectively no memory or I/O pressure."""
        if self.finished:
            return ResourceDemand()
        return ResourceDemand(
            cpu_cores=float(self.threads),
            mem_bw_gbps=0.05,
            llc_ws_mb=0.5,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Track consumed core-seconds."""
        self.cpu_time.record(grant.cpu_coresec, grant.dt)
        self._account_time(grant.dt)


class IperfStream(TimedDriver):
    """A bulk network stream between two VMs (iperf-style).

    Not part of the paper's antagonist set — included to demonstrate a
    *blind spot* of the published design: PerfCloud monitors disk and
    processor metrics only, so a tenant saturating the NICs degrades
    shuffle-heavy victims without ever tripping a detector.  See
    ``examples/limitations_network.py``.
    """

    profile = PerfProfile(
        base_cpi=1.1, llc_sensitivity=0.1, bw_sensitivity=0.3,
        mpki_min=1.0, mpki_max=2.0,
    )

    def __init__(
        self,
        peer_vm: str,
        rate_gbps: float = 9.0,
        duration_s: Optional[float] = None,
        *,
        streams: int = 16,
        on_s: Optional[float] = None,
        off_s: float = 0.0,
    ) -> None:
        super().__init__(duration_s, on_s=on_s, off_s=off_s)
        if rate_gbps <= 0:
            raise ValueError("rate_gbps must be positive")
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self.peer_vm = peer_vm
        self.rate_bps = rate_gbps * 1e9 / 8.0
        #: Parallel TCP streams (iperf -P): per-flow max-min fairness means
        #: a bully needs many flows to crowd out a victim's many flows.
        self.streams = int(streams)
        self.delivered = RateTracker()

    def demand(self) -> ResourceDemand:
        """Parallel bulk streams toward the peer VM."""
        if not self.active:
            return ResourceDemand()
        from repro.hardware.resources import NetFlowDemand

        per_stream = self.rate_bps / self.streams
        return ResourceDemand(
            cpu_cores=1.0,
            mem_bw_gbps=0.5,
            llc_ws_mb=2.0,
            flows=tuple(
                NetFlowDemand(peer_vm=self.peer_vm, bytes_per_s=per_stream,
                              direction="out")
                for _ in range(self.streams)
            ),
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Track delivered stream bytes."""
        self.delivered.record(sum(grant.net_bytes.values()), grant.dt)
        self._account_time(grant.dt)

    def achieved_gbps(self) -> float:
        """Windowed delivered stream rate."""
        return self.delivered.rate() * 8.0 / 1e9


#: Single-VM antagonist kinds: kind -> (flavor, driver factory).  Keyword
#: arguments passed to a factory override the kind's defaults.
ANTAGONISTS: Dict[str, Tuple[str, Callable[..., TimedDriver]]] = {
    "fio": ("m1.large", FioRandomRead),
    # Throttle-evading fio for the adaptive-antagonist scenarios.
    "fio-adaptive": ("m1.large", AdaptiveFio),
    # Episodic variants for the identification case studies (Figs. 5/6):
    # distinct on/off phases are what the victim signal locks onto.
    "fio-episodic": ("m1.large", partial(FioRandomRead, on_s=30.0, off_s=20.0)),
    "oltp": ("m1.large", partial(SysbenchOltp, duration_s=None)),
    "stream": ("m1.2xlarge", StreamBenchmark),
    "stream-episodic": (
        "m1.large",
        partial(StreamBenchmark, threads=8, on_s=35.0, off_s=25.0),
    ),
    # Fig. 6's setup: small STREAM VMs that only hurt in groups.
    "stream-small": ("m1.large", StreamBenchmark),
    "sysbench-cpu": ("m1.large", SysbenchCpu),
}

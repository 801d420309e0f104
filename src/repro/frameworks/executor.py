"""Per-VM task executor: turns running attempts into resource demand.

One :class:`ExecutorDriver` is attached to each worker VM of a scale-out
application (a Hadoop TaskTracker / Spark executor).  It offers ``slots``
concurrent task slots; the framework scheduler launches
:class:`~repro.frameworks.jobs.TaskAttempt` objects into free slots and
the executor translates their remaining-work vectors into per-second
demand rates, splits delivered grants back among attempts, and reports
completions.

Demand model: an attempt paces itself to finish in its task's nominal
duration — per dimension, ``rate = work / nominal_s`` (with a small
catch-up boost once behind).  When the hardware under-delivers on any
dimension, the attempt simply takes longer; the executor never
re-plans — exactly like a real task pinned to its I/O and CPU pattern.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.hardware.resources import (
    IDLE_PROFILE,
    NetFlowDemand,
    PerfProfile,
    ResourceDemand,
    ResourceGrant,
    ZERO_DEMAND,
)
from repro.frameworks.jobs import TaskAttempt
from repro.workloads.base import WorkloadDriver

__all__ = ["CompositeDriver", "ExecutorDriver", "blend_profiles"]

#: Catch-up factor applied to per-dimension pacing rates; lets a starved
#: attempt use more than its paced share when the resource frees up.
_BOOST = 1.25

#: Per-attempt shuffle fetch rate target (bytes/s) used for pacing.
_NET_RATE_BPS = 50e6

#: Task I/O is bursty: a task alternates read/spill bursts with compute
#: (duty cycle ~_BURST_DUTY), so aggregate disk demand fluctuates even at
#: constant task population — the source of the healthy-baseline iowait
#: variability Figs. 3/4 show below the detection thresholds.
_BURST_PERIOD_S = 4.0
_BURST_DUTY = 0.35
_BURST_FACTOR = 2.2
_IDLE_FACTOR = (1.0 - _BURST_DUTY * _BURST_FACTOR) / (1.0 - _BURST_DUTY)


def _burst_multiplier(attempt_id: int, now: float) -> float:
    """Deterministic pseudo-random duty-cycle multiplier (mean 1.0).

    Uses a splitmix64-style avalanche so consecutive buckets of the same
    attempt decorrelate fully.
    """
    bucket = int(now / _BURST_PERIOD_S)
    x = (attempt_id * 0x9E3779B97F4A7C15 + bucket * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    u = (x & 0xFFFFFFFF) / 4294967296.0
    return _BURST_FACTOR if u < _BURST_DUTY else _IDLE_FACTOR


_M64 = 0xFFFFFFFFFFFFFFFF


#: Memoized blends keyed by the (hashable) profile and weight tuples.
#: ``blend_profiles`` is a pure function of its arguments, so equal inputs
#: always yield the bit-identical output; the fluid layer re-blends the
#: same handful of task-personality combinations every tick.
_BLEND_CACHE: Dict[tuple, PerfProfile] = {}
_BLEND_CACHE_MAX = 4096


def blend_profiles(profiles: List[PerfProfile], weights: List[float]) -> PerfProfile:
    """CPU-weighted blend of task personalities running on one VM.

    The memory-system model takes one profile per VM; when a VM runs
    tasks from different benchmarks simultaneously, the blend weights
    each task's personality by its CPU appetite.
    """
    if not profiles:
        return IDLE_PROFILE
    total = sum(weights)
    if total <= 0:
        return profiles[0]
    if len(profiles) == 1:
        # Single personality: the weighted average degenerates to the
        # profile itself (w == [1.0] and x * 1.0 is exact).
        return profiles[0]
    key = (tuple(profiles), tuple(weights))
    cached = _BLEND_CACHE.get(key)
    if cached is not None:
        return cached
    w = [x / total for x in weights]

    def avg(attr: str) -> float:
        return sum(getattr(p, attr) * wi for p, wi in zip(profiles, w))

    blended = PerfProfile(
        base_cpi=avg("base_cpi"),
        llc_sensitivity=avg("llc_sensitivity"),
        bw_sensitivity=avg("bw_sensitivity"),
        mpki_min=avg("mpki_min"),
        mpki_max=avg("mpki_max"),
    )
    if len(_BLEND_CACHE) >= _BLEND_CACHE_MAX:
        _BLEND_CACHE.clear()
    _BLEND_CACHE[key] = blended
    return blended


class ExecutorDriver(WorkloadDriver):
    """Slot-based task executor bound to one VM."""

    def __init__(
        self,
        vm_name: str,
        slots: int,
        clock: Callable[[], float],
        on_attempt_done: Optional[Callable[[TaskAttempt], None]] = None,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots!r}")
        self.vm_name = vm_name
        self.slots = int(slots)
        self._clock = clock
        self.on_attempt_done = on_attempt_done
        self.running: List[TaskAttempt] = []
        # Keyed by attempt object identity (ids are stable hashes and in
        # principle could collide; objects cannot).
        self._last_rates: Dict[TaskAttempt, Dict[str, float]] = {}
        self._last_net_rates: Dict[TaskAttempt, Dict[str, float]] = {}
        #: Per-attempt memo of the last ``_pace`` result keyed by the only
        #: inputs the rates depend on (burst bucket + remaining-work
        #: flags).  Entries of all three dicts die with the attempt's
        #: slot (:meth:`_forget`), so a parked executor retains nothing.
        self._pace_memo: Dict[TaskAttempt, tuple] = {}

    # ------------------------------------------------------------------ slots
    @property
    def free_slots(self) -> int:
        """Slots not currently occupied by a running attempt."""
        return self.slots - len(self.running)

    def launch(self, attempt: TaskAttempt) -> None:
        """Occupy a slot with a new attempt (RuntimeError when full)."""
        if self.free_slots <= 0:
            raise RuntimeError(f"no free slot on executor {self.vm_name!r}")
        if attempt.vm_name != self.vm_name:
            raise ValueError(
                f"attempt targets VM {attempt.vm_name!r}, executor is {self.vm_name!r}"
            )
        self.running.append(attempt)

    def kill(self, attempt: TaskAttempt) -> None:
        """Remove a (possibly already dead) attempt from its slot."""
        if attempt in self.running:
            self.running.remove(attempt)
        self._forget(attempt)
        attempt.kill(self._clock())

    def _forget(self, attempt: TaskAttempt) -> None:
        """Drop an attempt's cached rates once it leaves its slot."""
        self._pace_memo.pop(attempt, None)
        self._last_rates.pop(attempt, None)
        self._last_net_rates.pop(attempt, None)

    # ------------------------------------------------------- driver interface
    @property
    def profile(self) -> PerfProfile:  # type: ignore[override]
        """Blend of the running tasks' personalities (CPU-weighted)."""
        active = [a for a in self.running if a.running]
        if not active:
            return IDLE_PROFILE
        profiles = [self._task_profile(a) for a in active]
        # The CPU pacing rate carries no burst factor, so the weight can
        # be computed directly instead of building the full rate dict.
        weights = [max(self._cpu_rate(a), 0.05) for a in active]
        return blend_profiles(profiles, weights)

    @property
    def finished(self) -> bool:
        """Executors idle between tasks; they never finish."""
        return False

    @property
    def idle(self) -> bool:  # type: ignore[override]
        """Parked while the slot list is empty.

        Not "no live attempt": killed attempts still in a slot must be
        delivered to, so that :meth:`consume` reaps them.
        """
        return not self.running

    def demand(self) -> ResourceDemand:
        """Aggregate demand of all running attempts (plus their flows)."""
        self._last_rates.clear()
        self._last_net_rates.clear()
        if not self.running:
            # Idle executor: no attempts means every accumulator below
            # stays 0.0 and no flows are emitted — exactly ZERO_DEMAND.
            return ZERO_DEMAND
        cpu = read_bps = read_iops = write_bps = write_iops = 0.0
        llc_ws = 0.0
        mem_bw = 0.0
        net_by_peer: Dict[str, float] = {}
        for a in self.running:
            if not a.running:
                continue
            rates = self._pace(a)
            net_rates = self._net_pace(a)
            self._last_rates[a] = rates
            self._last_net_rates[a] = net_rates
            cpu += rates.get("cpu", 0.0)
            read_bps += rates.get("read_bps", 0.0)
            read_iops += rates.get("read_iops", 0.0)
            write_bps += rates.get("write_bps", 0.0)
            write_iops += rates.get("write_iops", 0.0)
            llc_ws += a.task.work.llc_ws_mb
            mem_bw += a.task.work.mem_bw_gbps
            for peer, r in net_rates.items():
                net_by_peer[peer] = net_by_peer.get(peer, 0.0) + r
        flows = tuple(
            NetFlowDemand(peer_vm=peer, bytes_per_s=rate, direction="in")
            for peer, rate in sorted(net_by_peer.items())
            if rate > 0
        )
        return ResourceDemand(
            cpu_cores=cpu,
            read_iops=read_iops,
            write_iops=write_iops,
            read_bytes_ps=read_bps,
            write_bytes_ps=write_bps,
            mem_bw_gbps=mem_bw,
            llc_ws_mb=llc_ws,
            flows=flows,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Split the grant among attempts and reap completions."""
        if not self.running:
            # Nothing to advance and nothing to reap.
            return
        now = self._clock()
        active = [a for a in self.running if a.running and a in self._last_rates]
        if active:
            eff_scale = (
                grant.effective_coresec / grant.cpu_coresec
                if grant.cpu_coresec > 1e-12
                else 1.0
            )
            shares = self._split(grant, active)
            for a in active:
                s = shares[a]
                a.advance(
                    effective_coresec=s["cpu"] * eff_scale,
                    read_bytes=s["read_bytes"],
                    read_ops=s["read_ops"],
                    write_bytes=s["write_bytes"],
                    write_ops=s["write_ops"],
                    net_bytes=s["net"],
                    now=now,
                )
        # Reap finished attempts (work drained this step).  The completion
        # callback may kill sibling attempts on this same executor (losing
        # speculative copies), so membership must be re-checked.
        for a in list(self.running):
            if a not in self.running:
                continue
            if a.running and a.work_done:
                self.running.remove(a)
                self._forget(a)
                if self.on_attempt_done is not None:
                    self.on_attempt_done(a)
            elif not a.running:
                # Killed externally (e.g. task completed elsewhere).
                self.running.remove(a)
                self._forget(a)

    # ------------------------------------------------------------- internals
    def _task_profile(self, attempt: TaskAttempt) -> PerfProfile:
        return getattr(attempt.task.job, "profile", PerfProfile())

    def _nominal_s(self, attempt: TaskAttempt) -> float:
        return max(float(getattr(attempt.task, "nominal_s", 10.0)), 0.5)

    def _cpu_rate(self, attempt: TaskAttempt) -> float:
        """The CPU pacing rate alone (what ``_pace`` would report)."""
        if attempt.rem_cpu <= 1e-9:
            return 0.0
        w = attempt.task.work
        return min(1.0, _BOOST * w.cpu_coresec / self._nominal_s(attempt))

    def _pace(self, attempt: TaskAttempt) -> Dict[str, float]:
        """Per-dimension demand rates for one attempt.

        CPU is paced against the task's nominal duration (a task is one
        thread: at most one core).  I/O dimensions are *opportunistic*:
        while read/write work remains, the task streams at its framework's
        per-stream rate (``task.read_rate_bps`` / ``task.write_rate_bps``),
        modulated by the burst duty cycle — so a small read finishes
        quickly even under contention, rather than being stretched to the
        whole task's horizon.

        The rates depend only on task constants, the burst bucket of
        ``now`` and which work dimensions remain, so the last result is
        memoized under that key (the memo dict is never mutated after
        being stored).
        """
        task = attempt.task
        w = task.work
        memo_key = (
            int(self._clock() / _BURST_PERIOD_S),
            attempt.rem_cpu > 1e-9,
            attempt.rem_read_bytes > 1e-6 or attempt.rem_read_ops > 1e-9,
            attempt.rem_write_bytes > 1e-6 or attempt.rem_write_ops > 1e-9,
        )
        memo = self._pace_memo.get(attempt)
        if memo is not None and memo[0] == memo_key:
            return memo[1]
        t = self._nominal_s(attempt)
        burst = _burst_multiplier(attempt.id, self._clock())
        rates: Dict[str, float] = {}
        if attempt.rem_cpu > 1e-9:
            rates["cpu"] = min(1.0, _BOOST * w.cpu_coresec / t)
        if attempt.rem_read_bytes > 1e-6 or attempt.rem_read_ops > 1e-9:
            max_bps = getattr(task, "read_rate_bps", None)
            if max_bps is None:
                max_bps = w.read_bytes / t if w.read_bytes > 0 else 0.0
            ops_per_byte = w.read_ops / w.read_bytes if w.read_bytes > 0 else 0.0
            rates["read_bps"] = _BOOST * burst * max_bps
            rates["read_iops"] = rates["read_bps"] * ops_per_byte
        if attempt.rem_write_bytes > 1e-6 or attempt.rem_write_ops > 1e-9:
            max_bps = getattr(task, "write_rate_bps", None)
            if max_bps is None:
                max_bps = w.write_bytes / t if w.write_bytes > 0 else 0.0
            ops_per_byte = w.write_ops / w.write_bytes if w.write_bytes > 0 else 0.0
            rates["write_bps"] = _BOOST * burst * max_bps
            rates["write_iops"] = rates["write_bps"] * ops_per_byte
        self._pace_memo[attempt] = (memo_key, rates)
        return rates

    def _net_pace(self, attempt: TaskAttempt) -> Dict[str, float]:
        """Per-peer shuffle fetch rates for one attempt."""
        if not attempt.rem_net:
            return {}
        remaining = {p: b for p, b in attempt.rem_net.items() if b > 1e-6}
        total = sum(remaining.values())
        if total <= 0:
            return {}
        return {
            p: _NET_RATE_BPS * (b / total) for p, b in remaining.items()
        }

    def _split(
        self, grant: ResourceGrant, active: List[TaskAttempt]
    ) -> Dict[TaskAttempt, Dict[str, object]]:
        """Split a VM-level grant among attempts, proportional to demand."""
        dims = (
            ("cpu", grant.cpu_coresec, "cpu"),
            ("read_bps", grant.read_bytes, "read_bytes"),
            ("read_iops", grant.read_ops, "read_ops"),
            ("write_bps", grant.write_bytes, "write_bytes"),
            ("write_iops", grant.write_ops, "write_ops"),
        )
        shares: Dict[TaskAttempt, Dict[str, object]] = {
            a: {
                "cpu": 0.0,
                "read_bytes": 0.0,
                "read_ops": 0.0,
                "write_bytes": 0.0,
                "write_ops": 0.0,
                "net": {},
            }
            for a in active
        }
        for rate_key, amount, out_key in dims:
            total_rate = sum(self._last_rates[a].get(rate_key, 0.0) for a in active)
            if total_rate <= 1e-12 or amount <= 0:
                continue
            for a in active:
                frac = self._last_rates[a].get(rate_key, 0.0) / total_rate
                shares[a][out_key] = amount * frac
        # Network: grant.net_bytes is keyed by peer; split per peer.
        for peer, got in grant.net_bytes.items():
            total_rate = sum(
                self._last_net_rates[a].get(peer, 0.0) for a in active
            )
            if total_rate <= 1e-12 or got <= 0:
                continue
            for a in active:
                frac = self._last_net_rates[a].get(peer, 0.0) / total_rate
                if frac > 0:
                    shares[a]["net"][peer] = got * frac  # type: ignore[index]
        return shares

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutorDriver({self.vm_name!r}, running={len(self.running)}/"
            f"{self.slots})"
        )


class CompositeDriver(WorkloadDriver):
    """Multiplexes several drivers (e.g. a TaskTracker *and* a Spark
    executor daemon) onto one VM, as colocated slave services on the
    paper's worker nodes.

    Demand is the vector sum of the children's demands; each delivered
    grant is split back proportionally to the children's per-dimension
    demand, with the performance environment (CPI, I/O wait) passed
    through unchanged.
    """

    def __init__(self, children: List[WorkloadDriver]) -> None:
        if not children:
            raise ValueError("CompositeDriver needs at least one child")
        self.children = list(children)
        self._last: List[ResourceDemand] = []

    @property
    def profile(self) -> PerfProfile:  # type: ignore[override]
        """Blend of the children's personalities (CPU-weighted).

        The weights are the CPU demands of the latest :meth:`demand`
        poll; before the first poll the children weigh equally.  Reading
        the property never polls a child, so it changes no state.
        """
        profiles = [c.profile for c in self.children]
        weights = [max(d.cpu_cores, 0.05) for d in self._last]
        if len(weights) != len(profiles):
            weights = [1.0] * len(profiles)
        return blend_profiles(profiles, weights)

    @property
    def finished(self) -> bool:
        """Finished only when every child is."""
        return all(getattr(c, "finished", False) for c in self.children)

    @property
    def idle(self) -> bool:  # type: ignore[override]
        """Parked only while every child is."""
        # A plain loop: read once per row and tick, and a generator
        # costs twice as much.
        for c in self.children:
            if not getattr(c, "idle", False):
                return False
        return True

    def demand(self) -> ResourceDemand:
        """Vector sum of the children's demands."""
        self._last = [c.demand() for c in self.children]
        if all(d is ZERO_DEMAND for d in self._last):
            # Every child is the idle singleton: the vector sum is the
            # all-zero vector with no flows — ZERO_DEMAND itself.
            return ZERO_DEMAND
        flows = tuple(f for d in self._last for f in d.flows)
        cpu = riops = wiops = rbps = wbps = bw = llc = 0.0
        for d in self._last:
            cpu += d.cpu_cores
            riops += d.read_iops
            wiops += d.write_iops
            rbps += d.read_bytes_ps
            wbps += d.write_bytes_ps
            bw += d.mem_bw_gbps
            llc += d.llc_ws_mb
        return ResourceDemand(
            cpu_cores=cpu,
            read_iops=riops,
            write_iops=wiops,
            read_bytes_ps=rbps,
            write_bytes_ps=wbps,
            mem_bw_gbps=bw,
            llc_ws_mb=llc,
            flows=flows,
        )

    def consume(self, grant: ResourceGrant) -> None:
        """Split the grant per dimension, proportional to child demand."""
        if not self._last:
            self._last = [c.demand() for c in self.children]
        if all(d is ZERO_DEMAND for d in self._last):
            # Only drivers whose consume() is a no-op on an idle step
            # return the ZERO_DEMAND singleton, and every split fraction
            # below would be 0.0 — the whole pass can be skipped.
            return

        # One pass accumulates every per-dimension total (same left-to-
        # right addition order as summing each dimension separately).
        last = self._last
        n = len(last)
        cpu_t = riops_t = wiops_t = rbps_t = wbps_t = bw_t = 0.0
        for d in last:
            cpu_t += d.cpu_cores
            riops_t += d.read_iops
            wiops_t += d.write_iops
            rbps_t += d.read_bytes_ps
            wbps_t += d.write_bytes_ps
            bw_t += d.mem_bw_gbps

        def fracs(total: float, vals: List[float]) -> List[float]:
            if total <= 1e-12:
                return [0.0] * n
            return [v / total for v in vals]

        cpu_f = fracs(cpu_t, [d.cpu_cores for d in last])
        riops_f = fracs(riops_t, [d.read_iops for d in last])
        wiops_f = fracs(wiops_t, [d.write_iops for d in last])
        rbps_f = fracs(rbps_t, [d.read_bytes_ps for d in last])
        wbps_f = fracs(wbps_t, [d.write_bytes_ps for d in last])
        bw_f = fracs(bw_t, [d.mem_bw_gbps for d in last])
        for i, child in enumerate(self.children):
            # Per-peer network split by this child's share of flow demand.
            net: Dict[str, float] = {}
            for peer, got in grant.net_bytes.items():
                mine = sum(
                    f.bytes_per_s for f in self._last[i].flows if f.peer_vm == peer
                )
                total = sum(
                    f.bytes_per_s
                    for d in self._last
                    for f in d.flows
                    if f.peer_vm == peer
                )
                if total > 1e-12 and mine > 0:
                    net[peer] = got * mine / total
            child.consume(
                ResourceGrant(
                    dt=grant.dt,
                    cpu_coresec=grant.cpu_coresec * cpu_f[i],
                    effective_coresec=grant.effective_coresec * cpu_f[i],
                    cpi=grant.cpi,
                    mpki=grant.mpki,
                    read_ops=grant.read_ops * riops_f[i],
                    write_ops=grant.write_ops * wiops_f[i],
                    read_bytes=grant.read_bytes * rbps_f[i],
                    write_bytes=grant.write_bytes * wbps_f[i],
                    io_wait_ms_per_op=grant.io_wait_ms_per_op,
                    mem_bytes=grant.mem_bytes * bw_f[i],
                    net_bytes=net,
                )
            )

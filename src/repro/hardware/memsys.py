"""Shared LLC and memory-bandwidth contention model.

Produces, per VM and per step, the two hardware-counter signals PerfCloud
consumes (§III-A2, §III-B):

* **CPI** — cycles per instruction, inflated by (a) LLC misses the VM
  would *not* have suffered running alone (occupancy stolen by cache-
  hungry neighbours) and (b) DRAM-bandwidth stalls when aggregate traffic
  exceeds the socket's bandwidth;
* **LLC miss rate** — misses/second, derived from the VM's MPKI profile
  and its achieved instruction rate.  Streaming workloads (STREAM) have
  intrinsically high MPKI; cache-friendly ones (sysbench cpu) low.

Model
-----
Occupancy: each active VM bids its working-set size weighted by its CPU
activity; the LLC is divided proportionally to bids, capped at each VM's
working set (nobody caches more than they touch).  The *contention miss
factor* is the shortfall between what the VM caches alone and what it
caches now, as a fraction of its working set.

Bandwidth: per-VM DRAM traffic demand scales with its miss factor; when
the sum exceeds capacity, every VM's traffic is scaled down and the unmet
fraction becomes a stall factor.

CPI: ``base_cpi * (1 + llc_sens * extra_miss + bw_sens * stall) * jitter``
with cross-VM lognormal jitter whose scale rises with contention — the
deviation-of-CPI detection signal (paper Fig. 4: peak deviation stays
below 1 alone, exceeds it under a colocated STREAM).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from repro.hardware.jitter import PersistentBias
from repro.hardware.specs import MemSpec
from repro.hardware.table import row_sums, seq_sum

__all__ = ["MemRequest", "MemOutcome", "MemorySystem", "IDLE_MEM_REQUEST"]


@dataclass(frozen=True)
class MemRequest:
    """Per-VM memory-system characteristics for one step.

    ``active_cores`` is the CPU allocation granted this step — an idle VM
    neither holds cache (its lines age out) nor consumes bandwidth.
    ``demand_cores`` is what the VM *asked* for: a workload throttled from
    8 wanted cores down to 2 granted can only drive a quarter of its
    nominal bandwidth (this is how CPU hard-capping also tames STREAM's
    memory pressure, the effect PerfCloud's CPU control relies on).
    """

    llc_ws_mb: float = 0.0
    mem_bw_gbps: float = 0.0
    active_cores: float = 0.0
    demand_cores: float = 0.0
    base_cpi: float = 1.0
    llc_sensitivity: float = 0.0
    bw_sensitivity: float = 0.0
    #: Misses per kilo-instruction when the working set is fully resident.
    mpki_min: float = 0.5
    #: Misses per kilo-instruction when nothing is resident.
    mpki_max: float = 20.0


@dataclass
class MemOutcome:
    """Per-VM memory-system outcome for one step.

    ``cpi`` is the *observed* cycles-per-instruction — what a perf counter
    reports, including the persistent per-VM skew that makes the
    cross-VM CPI deviation a usable contention signal.  ``cpi_effective``
    is the *sustained-throughput* CPI that governs how much useful work a
    granted core-second performs: the deterministic contention inflation
    plus only fast noise.  Observed dispersion exceeds sustained
    dispersion in real machines (phase sampling, counter windows), and
    keeping the two apart lets the detector see a strong signal without
    cartoonishly multiplying aggregate damage.
    """

    cpi: float
    cpi_effective: float
    mpki: float
    #: Fraction of the working set *not* cached due to sharing, beyond the
    #: solo-run shortfall (the contention component).
    extra_miss_factor: float
    #: Fraction of demanded DRAM traffic that stalled.
    bw_stall: float
    #: DRAM bytes actually moved during the step.
    mem_bytes: float
    #: LLC occupancy granted, MB.
    occupancy_mb: float


#: Shared request for an idle guest with the default (idle) perf profile.
#: Frozen, so callers may pass the same instance every step; ``evaluate``
#: recognises it by identity and returns a shared idle outcome instead of
#: building a fresh one (consumers treat outcomes as read-only).
IDLE_MEM_REQUEST = MemRequest()

#: The outcome ``evaluate`` computes for ``IDLE_MEM_REQUEST``: inactive
#: guests observe their base CPI and touch nothing.  Read-only by
#: convention — it is handed out once per idle guest per step.
_IDLE_OUTCOME = MemOutcome(
    cpi=IDLE_MEM_REQUEST.base_cpi,
    cpi_effective=IDLE_MEM_REQUEST.base_cpi,
    mpki=0.0,
    extra_miss_factor=0.0,
    bw_stall=0.0,
    mem_bytes=0.0,
    occupancy_mb=0.0,
)


class MemorySystem:
    """Shared memory hierarchy of one physical host."""

    def __init__(self, spec: MemSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._rng = rng
        self._bias = PersistentBias(rng, mean_epoch_steps=12.0, folded=True)
        #: Bandwidth utilization of the most recent step.
        self.bw_utilization = 0.0

    def evaluate(
        self, requests: Mapping[Hashable, MemRequest], dt: float
    ) -> Dict[Hashable, MemOutcome]:
        """Resolve one step of LLC/bandwidth sharing into per-VM outcomes."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        active = {
            vm: r for vm, r in requests.items() if r.active_cores > 1e-9
        }

        # ---- LLC occupancy sharing -------------------------------------
        # Bids are capped at a few cache sizes: a streaming workload whose
        # working set is gigabytes does not occupy the LLC proportionally —
        # under (pseudo-)LRU its share saturates with its access rate.
        bid_cap = 3.0 * self.spec.llc_mb
        bids = {
            vm: min(r.llc_ws_mb, bid_cap) * min(r.active_cores, 8.0)
            for vm, r in active.items()
        }
        total_bid = seq_sum(bids.values())
        occupancy: Dict[Hashable, float] = {}
        for vm, r in active.items():
            if total_bid <= 1e-12 or r.llc_ws_mb <= 0:
                occupancy[vm] = 0.0
                continue
            share = self.spec.llc_mb * bids[vm] / total_bid
            occupancy[vm] = min(share, r.llc_ws_mb)
        # Redistribute slack (capped VMs free space for hungry ones) once —
        # a single pass captures most of the effect without iteration.
        slack = self.spec.llc_mb - seq_sum(occupancy.values())
        hungry = {
            vm: active[vm].llc_ws_mb - occupancy[vm]
            for vm in active
            if active[vm].llc_ws_mb - occupancy[vm] > 1e-9
        }
        if slack > 1e-9 and hungry:
            total_hunger = seq_sum(hungry.values())
            for vm, hunger in hungry.items():
                occupancy[vm] += min(hunger, slack * hunger / total_hunger)

        # ---- miss factors ------------------------------------------------
        miss_factor: Dict[Hashable, float] = {}
        extra_miss: Dict[Hashable, float] = {}
        for vm, r in active.items():
            if r.llc_ws_mb <= 0:
                miss_factor[vm] = 0.0
                extra_miss[vm] = 0.0
                continue
            mf = max(0.0, 1.0 - occupancy[vm] / r.llc_ws_mb)
            solo_occ = min(r.llc_ws_mb, self.spec.llc_mb)
            solo_mf = max(0.0, 1.0 - solo_occ / r.llc_ws_mb)
            miss_factor[vm] = mf
            extra_miss[vm] = max(0.0, mf - solo_mf)

        # ---- bandwidth sharing -------------------------------------------
        bw_demand: Dict[Hashable, float] = {}
        for vm, r in active.items():
            # Scale nominal bandwidth by CPU throttling (fewer cores drive
            # proportionally less traffic) and by cache hit rate.
            cpu_scale = (
                min(1.0, r.active_cores / r.demand_cores)
                if r.demand_cores > 1e-9
                else 1.0
            )
            if r.llc_ws_mb > 0:
                locality = 0.25 + 0.75 * miss_factor.get(vm, 0.0)
            else:
                locality = 0.25
            bw_demand[vm] = r.mem_bw_gbps * cpu_scale * locality
        total_bw = seq_sum(bw_demand.values())
        self.bw_utilization = total_bw / self.spec.bandwidth_gbps
        bw_scale = (
            1.0
            if total_bw <= self.spec.bandwidth_gbps
            else self.spec.bandwidth_gbps / total_bw
        )
        stall = max(0.0, 1.0 - bw_scale)

        # ---- outcomes ----------------------------------------------------
        out: Dict[Hashable, MemOutcome] = {}
        jitter_sigma = self._jitter_scale(
            stall, max(extra_miss.values(), default=0.0)
        )
        for vm, r in requests.items():
            if r is IDLE_MEM_REQUEST:
                out[vm] = _IDLE_OUTCOME
                continue
            if vm not in active:
                out[vm] = MemOutcome(
                    cpi=r.base_cpi,
                    cpi_effective=r.base_cpi,
                    mpki=0.0,
                    extra_miss_factor=0.0,
                    bw_stall=0.0,
                    mem_bytes=0.0,
                    occupancy_mb=0.0,
                )
                continue
            em = extra_miss[vm]
            mpki = r.mpki_min + (r.mpki_max - r.mpki_min) * miss_factor[vm]
            inflation = 1.0 + r.llc_sensitivity * em + r.bw_sensitivity * stall
            # Persistent per-VM skew (socket placement, scheduling luck)
            # plus small fast noise; the skew is one-sided (contention
            # never speeds a VM up) and appears fully in the observed CPI
            # but only mildly in sustained throughput.
            bias = self._bias.value(vm, jitter_sigma)
            fast = float(self._rng.lognormal(mean=0.0, sigma=0.02))
            cpi_obs = r.base_cpi * inflation * bias * fast
            cpi_eff = r.base_cpi * inflation * (1.0 + 0.25 * (bias - 1.0)) * fast
            out[vm] = MemOutcome(
                cpi=max(cpi_obs, 0.05),
                cpi_effective=max(cpi_eff, 0.05),
                mpki=mpki,
                extra_miss_factor=em,
                bw_stall=stall,
                mem_bytes=bw_demand[vm] * bw_scale * 1e9 * dt,
                occupancy_mb=occupancy[vm],
            )
        return out

    # -------------------------------------------------------- columnar step
    @staticmethod
    def evaluate_table(table, dt: float) -> None:
        """Columnar :meth:`evaluate` over every busy host of a ``GuestTable``.

        Reads the granted-CPU slab (``active_cores`` in the scalar
        request), the demand slabs and the profile slabs; writes the
        ``mem_out`` result slab (``cpi`` / ``cpi_eff`` / ``mpki`` /
        ``mem_bytes``) and each busy host's bandwidth gauge.  Bias/fast
        RNG draws happen per active slot in row order, host by host,
        exactly as the scalar outcome loop drew them.  Inactive rows
        (including idle ones) observe their base CPI with no clamp,
        matching the scalar not-active branch.  The contention model
        before the draws is cached on the table while its input rows
        hold (see :func:`_mem_plan`).  A static method because one call
        serves every host's memory system; call it on the class.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        plan = table.cached("memsys", _mem_plan, dt)
        names = table.names
        mems = table.mems
        active = plan.active
        bias = np.empty(plan.act.shape)
        bias.fill(1.0)
        fast = bias.copy()
        bias_flat = bias.reshape(-1)
        fast_flat = fast.reshape(-1)
        for h in table.busy:
            mem = mems[h]
            mem.bw_utilization = plan.bw_util_l[h]
            sigma = mem._jitter_scale(plan.stall_l[h], plan.peak_l[h])
            persistent = mem._bias
            lognormal = mem._rng.lognormal
            for k in active[h]:
                bias_flat[k] = persistent.value(names[k], sigma)
                fast_flat[k] = lognormal(0.0, 0.02)
        # Persistent per-VM skew plus small fast noise (see evaluate).
        prof = table.profile
        base = prof[0]
        act = plan.act
        inflated = base * (1.0 + prof[1] * plan.em + prof[2] * plan.stall)
        out = table.mem_out
        cpi = np.maximum(inflated * bias * fast, 0.05)
        np.copyto(out[0], np.where(act, cpi, base))
        cpi_eff = np.maximum(inflated * (1.0 + 0.25 * (bias - 1.0)) * fast, 0.05)
        np.copyto(out[1], np.where(act, cpi_eff, base))
        mpki = prof[3] + (prof[4] - prof[3]) * plan.mf
        np.copyto(out[2], np.where(act, mpki, 0.0))

    def _jitter_scale(self, stall: float, peak_extra: float) -> float:
        """Skew scale of the per-VM persistent CPI bias.

        Grows with contention intensity (bandwidth stalls are weighted
        double: starvation is far less uniform than occupancy loss);
        ``peak_extra`` is the largest contention miss factor on the host.
        """
        # Bandwidth starvation skews VMs far more unevenly than occupancy
        # loss (a starved socket stalls whole vCPUs), so it dominates the
        # skew scale; self-inflicted occupancy pressure contributes only
        # mildly — the healthy baseline must stay under the H_cpi = 1
        # threshold.
        return self.spec.jitter_gain * (
            self.spec.base_skew
            + self.spec.extra_skew * peak_extra
            + self.spec.stall_skew * min(1.0, 2.0 * stall)
        )


def _mem_plan(table, dt: float) -> SimpleNamespace:
    """The contention model of a columnar memory step, before any draw.

    A pure function of the granted-CPU slab and the CPU and memory
    demand rows, ``inputs[0:4]`` (and ``dt``; the CPU grant is itself a
    function of ``inputs[0:2]``), so the table caches it while they
    hold: LLC occupancy and miss factors, DRAM bandwidth sharing and
    stall, the per-host gauges and jitter inputs, and the bytes moved
    (written to ``table.mem_out[3]`` here).
    """
    grant = table.cpu_grant
    inputs = table.inputs
    ws = inputs[3]
    llc = table.llc_col
    act = grant > 1e-9
    wmask = act & (ws > 0.0)

    # ---- LLC occupancy sharing -------------------------------------
    bids = np.minimum(ws, table.bid_cap) * np.minimum(grant, 8.0)
    total_bid = row_sums(np.where(act, bids, 0.0))[:, None]
    bidding = total_bid > 1e-12
    share = llc * bids / np.where(bidding, total_bid, 1.0)
    occ = np.where(wmask & bidding, np.minimum(share, ws), 0.0)
    # Redistribute slack (capped VMs free space for hungry ones) once.
    slack = llc - row_sums(occ)[:, None]
    # A full LLC (the common contended case) has no slack to give.
    if max(slack.ravel().tolist(), default=0.0) > 1e-9:
        hunger = ws - occ
        hmask = act & (hunger > 1e-9)
        fill = hmask & (slack > 1e-9)
        if fill.any():
            total_hunger = row_sums(np.where(hmask, hunger, 0.0))[:, None]
            total_hunger = np.where(total_hunger > 0.0, total_hunger, 1.0)
            occ = np.where(
                fill, occ + np.minimum(hunger, slack * hunger / total_hunger), occ
            )

    # ---- miss factors ------------------------------------------------
    # A ratio of 1 outside wmask makes both miss factors, and so em,
    # exactly zero there, as the scalar path sets them.
    ratio = np.empty((2,) + occ.shape)
    ratio.fill(1.0)
    np.divide(occ, ws, out=ratio[0], where=wmask)
    np.divide(np.minimum(ws, llc), ws, out=ratio[1], where=wmask)
    miss = np.maximum(0.0, 1.0 - ratio)
    mf = miss[0]
    em = np.maximum(0.0, mf - miss[1])

    # ---- bandwidth sharing -------------------------------------------
    demand = inputs[0]
    cpu_scale = np.empty(occ.shape)
    cpu_scale.fill(1.0)
    np.divide(grant, demand, out=cpu_scale, where=demand > 1e-9)
    np.minimum(1.0, cpu_scale, out=cpu_scale)
    # mf is zero where there is no working set, so this is the scalar
    # 0.25 there too.
    locality = 0.25 + 0.75 * mf
    bwd = np.where(act, inputs[2] * cpu_scale * locality, 0.0)
    total_bw = row_sums(bwd)
    bandwidth = table.bw_gbps
    bw_scale = np.empty(total_bw.shape)
    bw_scale.fill(1.0)
    np.divide(bandwidth, total_bw, out=bw_scale, where=total_bw > bandwidth)
    stall = np.maximum(0.0, 1.0 - bw_scale)
    # bwd is zero on inactive rows, so they move zero bytes.
    np.multiply(bwd * bw_scale[:, None] * 1e9, dt, out=table.mem_out[3])
    flags = act.ravel().tolist()
    return SimpleNamespace(
        act=act,
        # Active slots of each host, in row order.
        active=[[k for k in r if flags[k]] for r in table.slots],
        mf=mf,
        em=em,
        stall=stall[:, None],
        stall_l=stall.tolist(),
        # em is zero on inactive rows, so the row max equals the scalar
        # max over the active set (values are all >= 0).
        peak_l=np.maximum.reduce(em, axis=1).tolist(),
        bw_util_l=(total_bw / bandwidth).tolist(),
    )

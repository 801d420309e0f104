"""Block device with congestion-dependent queueing delay.

The device has two capacity dimensions — operations/second (random access)
and bytes/second (streaming) — and serves per-VM demand subject to
per-VM throttle caps (the blkio-throttle actuator).  When aggregate demand
exceeds capacity, grants shrink proportionally (fair queueing between
equal-weight cgroups) and the scheduler-queue wait per operation grows
following an M/M/1-like curve.

The signal PerfCloud detects is not the *mean* wait but its *variance
across VMs*: in a real kernel, queue positions, request merging and seek
patterns make per-cgroup service noisy, with noise that grows with device
utilization.  Two mechanisms model this (both persistent over ~12 s
epochs, so the 5-second counters can see them):

* a mean-1 **service-share factor** per VM under saturation — one VM's
  lucky streak takes throughput from the others; and
* a per-VM **wait skew**, with each VM's wait additionally scaled by its
  relative service deficit.

Running alone, the worker VMs see near-equal waits (iowait-ratio
deviation well under the paper's threshold of 10); with a fio antagonist
saturating the device, waits inflate and diverge — and, crucially,
co-move with the antagonist's achieved throughput, which is what the
online Pearson identification locks onto (paper Figs. 3 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from repro.hardware.jitter import PersistentBias
from repro.hardware.specs import DiskSpec
from repro.hardware.table import row_sums, seq_sum

__all__ = ["DiskRequest", "DiskGrant", "BlockDevice", "IDLE_REQUEST"]


@dataclass(frozen=True)
class DiskRequest:
    """Per-VM I/O appetite for one step, pre-throttle."""

    read_iops: float = 0.0
    write_iops: float = 0.0
    read_bytes_ps: float = 0.0
    write_bytes_ps: float = 0.0
    iops_cap: Optional[float] = None
    bps_cap: Optional[float] = None

    @property
    def total_iops(self) -> float:
        """Read + write operations per second demanded."""
        return self.read_iops + self.write_iops

    @property
    def total_bytes_ps(self) -> float:
        """Read + write bytes per second demanded."""
        return self.read_bytes_ps + self.write_bytes_ps


@dataclass
class DiskGrant:
    """Per-VM I/O outcome for one step (amounts, not rates)."""

    read_ops: float = 0.0
    write_ops: float = 0.0
    read_bytes: float = 0.0
    write_bytes: float = 0.0
    wait_ms_per_op: float = 0.0

    @property
    def total_ops(self) -> float:
        """Operations delivered during the step."""
        return self.read_ops + self.write_ops


#: Shared request for an uncapped guest demanding no I/O this step.  The
#: dataclass is frozen, so callers may pass the same instance every step;
#: :meth:`BlockDevice.allocate` recognises it by identity and skips the
#: cap/share arithmetic (whose result on zero demand is zero anyway).
IDLE_REQUEST = DiskRequest()


class BlockDevice:
    """Shared block device of one physical host."""

    def __init__(self, spec: DiskSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._rng = rng
        self._bias = PersistentBias(rng, mean_epoch_steps=12.0)
        self._share_bias = PersistentBias(rng, mean_epoch_steps=12.0)
        #: Utilization of the most recent step (max of the two dimensions).
        self.utilization = 0.0
        #: Cumulative ops/bytes served (device lifetime counters).
        self.total_ops_served = 0.0
        self.total_bytes_served = 0.0

    # ------------------------------------------------------------------ step
    def allocate(
        self, requests: Mapping[Hashable, DiskRequest], dt: float
    ) -> Dict[Hashable, DiskGrant]:
        """Serve one step of I/O demand; returns per-VM grants.

        Throttle caps apply *before* contention: a capped VM never demands
        more than its cap from the device, which is exactly how blkio
        throttling interposes ahead of the device queue.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        eff_iops: Dict[Hashable, float] = {}
        eff_bps: Dict[Hashable, float] = {}
        for vm, req in requests.items():
            if req is IDLE_REQUEST:
                eff_iops[vm] = 0.0
                eff_bps[vm] = 0.0
                continue
            iops = req.total_iops
            bps = req.total_bytes_ps
            if req.iops_cap is not None:
                iops = min(iops, max(0.0, req.iops_cap))
            if req.bps_cap is not None:
                bps = min(bps, max(0.0, req.bps_cap))
            # A cap on one dimension implies the same fractional squeeze on
            # the other (ops carry bytes).
            ops_frac = iops / req.total_iops if req.total_iops > 0 else 1.0
            bytes_frac = bps / req.total_bytes_ps if req.total_bytes_ps > 0 else 1.0
            squeeze = min(ops_frac, bytes_frac)
            eff_iops[vm] = req.total_iops * squeeze
            eff_bps[vm] = req.total_bytes_ps * squeeze

        total_iops = seq_sum(eff_iops.values())
        total_bps = seq_sum(eff_bps.values())
        rho = max(
            total_iops / self.spec.max_iops, total_bps / self.spec.max_bytes_per_s
        )
        self.utilization = rho

        # Per-VM service shares under saturation fluctuate (queue position,
        # request merging, seek adjacency): a persistent mean-1 share factor
        # s_i modulates each VM's slice.  Crucially, one VM's lucky streak
        # *takes service away from the others and raises their waits* — the
        # co-movement between an antagonist's throughput and the victims'
        # iowait deviation that the online identification keys on (§III-B).
        share_sigma = self._share_sigma(rho)
        shares: Dict[Hashable, float] = {}
        for vm in requests:
            if eff_iops[vm] > 0 or eff_bps[vm] > 0:
                shares[vm] = self._share_bias.value(vm, share_sigma)
            else:
                shares[vm] = 1.0
                self._share_bias.forget(vm)
        if rho > 1.0:
            # Utilization-weighted renormalization keeps the device at
            # capacity regardless of the share draws.
            def util(vm: Hashable) -> float:
                return (
                    eff_iops[vm] / self.spec.max_iops
                    + eff_bps[vm] / self.spec.max_bytes_per_s
                )

            weighted = seq_sum(util(vm) * shares[vm] for vm in requests)
            plain = seq_sum(util(vm) for vm in requests)
            norm = plain / weighted if weighted > 1e-12 else 1.0
            scale = {vm: min(1.0, shares[vm] * norm / rho) for vm in requests}
        else:
            scale = {vm: 1.0 for vm in requests}

        base_queue_ms = self._queue_delay_ms(rho)
        jitter_scale = self._jitter_scale(rho)

        grants: Dict[Hashable, DiskGrant] = {}
        for vm in requests:
            req = requests[vm]
            if req is IDLE_REQUEST:
                self._bias.forget(vm)
                grants[vm] = DiskGrant()
                continue
            served_iops = eff_iops[vm] * scale[vm]
            served_bps = eff_bps[vm] * scale[vm]
            # Split back into read/write proportionally to demand.
            r_frac = (
                req.read_iops / req.total_iops if req.total_iops > 0 else 0.0
            )
            rb_frac = (
                req.read_bytes_ps / req.total_bytes_ps
                if req.total_bytes_ps > 0
                else 0.0
            )
            wait = 0.0
            if served_iops > 0:
                # Wait per op scales with the VM's *relative* service
                # deficit (its slowdown vs. the mean proportional share,
                # ~1/s_i): the smaller its achieved share, the longer its
                # requests sat in the scheduler queue.  Plus residual
                # per-VM skew and a little fast noise.
                if rho > 1.0:
                    relative_slowdown = 1.0 / max(scale[vm] * rho, 1e-3)
                    deficit = min(relative_slowdown, 10.0)
                else:
                    deficit = 1.0
                bias = self._bias.value(vm, jitter_scale)
                fast = float(self._rng.lognormal(mean=0.0, sigma=0.05))
                wait = (
                    self.spec.base_service_ms + base_queue_ms * deficit * bias
                ) * fast
            else:
                self._bias.forget(vm)
            grants[vm] = DiskGrant(
                read_ops=served_iops * r_frac * dt,
                write_ops=served_iops * (1.0 - r_frac) * dt,
                read_bytes=served_bps * rb_frac * dt,
                write_bytes=served_bps * (1.0 - rb_frac) * dt,
                wait_ms_per_op=wait,
            )
            self.total_ops_served += grants[vm].total_ops
            self.total_bytes_served += grants[vm].read_bytes + grants[vm].write_bytes
        return grants

    # -------------------------------------------------------- columnar step
    @staticmethod
    def allocate_table(table, dt: float) -> None:
        """Columnar :meth:`allocate` over every busy host of a ``GuestTable``.

        Reads the demand/cap slabs, writes the ``io_out`` result slab
        (read/write ops and bytes, wait per op), and advances exactly the
        RNG/bias state, gauges and lifetime counters the scalar path
        would, host by host: bias draws and forgets happen per slot, in
        row order, under the same conditions.  Idle rows are plain
        all-zero rows here — the cap/squeeze arithmetic on a zero row
        yields the same zeros the scalar ``IDLE_REQUEST`` identity
        shortcut does.  The draw-independent part is cached on the table
        while its input rows hold (see :func:`_disk_plan`).  A static
        method because one call serves every host's device; call it on
        the class.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        plan = table.cached("disk", _disk_plan, dt)
        busy = table.busy
        slots = table.slots
        names = table.names
        disks = table.disks
        rho_l = plan.rho_l

        # Per-VM service shares under saturation (see allocate): drawn for
        # every active slot, used only by saturated hosts.
        shares = np.empty(plan.eff[0].shape)
        shares.fill(1.0)
        share_flat = shares.reshape(-1)
        share_active = plan.share_active
        for h in busy:
            disk = disks[h]
            sigma = disk._share_sigma(rho_l[h])
            bias = disk._share_bias
            for k in slots[h]:
                if share_active[k]:
                    share_flat[k] = bias.value(names[k], sigma)
                else:
                    bias.forget(names[k])
        if plan.saturated:
            weighted = row_sums(plan.util * shares)
            norm = np.empty(weighted.shape)
            norm.fill(1.0)
            np.divide(plan.plain, weighted, out=norm, where=weighted > 1e-12)
            scale = np.where(
                plan.over,
                np.minimum(1.0, shares * norm[:, None] / plan.rho_col),
                1.0,
            )
            served = plan.eff * scale
            serving, ops, nbytes = _serve(table, served, plan.read_frac, dt)
            deficit = np.minimum(
                1.0 / np.maximum(scale * plan.rho_col, 1e-3), 10.0
            ).ravel().tolist()
        else:
            serving, ops, nbytes = plan.served
            deficit = None

        wait = table.io_wait_ms
        wait[:] = 0.0
        for h in busy:
            disk = disks[h]
            r = rho_l[h]
            disk.utilization = r
            base_queue_ms = disk._queue_delay_ms(r)
            jitter_scale = disk._jitter_scale(r)
            base_service_ms = disk.spec.base_service_ms
            bias = disk._bias
            lognormal = disk._rng.lognormal
            saturated = r > 1.0
            for k in slots[h]:
                if serving[k]:
                    b = bias.value(names[k], jitter_scale)
                    fast = lognormal(0.0, 0.05)
                    d = deficit[k] if saturated else 1.0
                    wait[k] = (base_service_ms + base_queue_ms * d * b) * fast
                else:
                    bias.forget(names[k])
            # Lifetime counters accumulate per slot in row order; idle
            # slots add an exact +0.0, matching the scalar skip.
            total_ops = disk.total_ops_served
            total_bytes = disk.total_bytes_served
            for k in slots[h]:
                total_ops += ops[k]
                total_bytes += nbytes[k]
            disk.total_ops_served = total_ops
            disk.total_bytes_served = total_bytes

    # ------------------------------------------------------------- internals
    def _queue_delay_ms(self, rho: float) -> float:
        """Mean scheduler-queue delay per op at utilization ``rho``.

        M/M/1-like growth ``rho/(1-rho)`` for sub-saturation, switching to
        a linear overload ramp past ``rho = 0.95`` (a saturated device's
        queue grows with backlog, but within one fluid step the backlog is
        bounded by the step's arrivals).
        """
        if rho <= 0:
            return 0.0
        knee = 0.95
        gain = self.spec.queue_gain * self.spec.base_service_ms
        if rho < knee:
            return gain * rho / (1.0 - rho)
        at_knee = gain * knee / (1.0 - knee)  # gain * 19
        return at_knee * (1.0 + 0.5 * (rho - knee))

    def _share_sigma(self, rho: float) -> float:
        """Skew of the per-VM service-share factor; saturated devices
        redistribute service far more unevenly than idle ones."""
        if rho <= 0.9:
            return 0.03
        return self.spec.jitter_gain * min(0.50, 0.03 + 0.35 * (rho - 0.9))

    def _jitter_scale(self, rho: float) -> float:
        """Skew scale of the per-VM persistent wait bias at utilization
        ``rho``: modest below the saturation knee (VMs see near-homogeneous
        service) and growing once the device is oversubscribed, so the
        cross-VM wait deviation becomes the dominant interference signal.
        """
        excess = min(max(rho - 0.8, 0.0), 1.4) / 1.4
        return self.spec.jitter_gain * (
            self.spec.base_skew + self.spec.excess_skew * excess
        )


def _disk_plan(table, dt: float) -> SimpleNamespace:
    """The part of a columnar disk step that draws no random numbers.

    A pure function of the read/write rate and I/O cap rows,
    ``inputs[4:10]`` (and ``dt``), so the table caches it while they
    hold: throttle caps applied ahead of the device, utilization ``rho``
    per host, the read shares, and — when no host is saturated, so no
    share draw can move them — the served amounts themselves.
    """
    inputs = table.inputs
    reads = inputs[4:6]
    # Rows 0/1 of every (2, hosts, width) stack: operations, bytes.
    io = reads + inputs[6:8]
    demanding = io > 0.0
    frac = np.empty(io.shape)
    frac.fill(1.0)
    capped = np.minimum(io, np.maximum(inputs[8:10], 0.0))
    np.divide(capped, io, out=frac, where=demanding)
    # A cap on one dimension implies the same fractional squeeze on the
    # other (ops carry bytes).
    eff = io * np.minimum(frac[0], frac[1])
    load = row_sums(eff) / table.io_capacity
    rho = np.maximum(load[0], load[1])
    read_frac = np.zeros(io.shape)
    np.divide(reads, io, out=read_frac, where=demanding)
    rho_l = rho.tolist()
    plan = SimpleNamespace(
        eff=eff,
        rho_l=rho_l,
        read_frac=read_frac,
        share_active=((eff[0] > 0.0) | (eff[1] > 0.0)).ravel().tolist(),
        saturated=max(rho_l, default=0.0) > 1.0,
    )
    if plan.saturated:
        over = rho > 1.0
        plan.over = over[:, None]
        plan.rho_col = np.where(over, rho, 1.0)[:, None]
        # Utilization-weighted renormalization inputs (see allocate).
        util = eff / table.io_capacity[:, :, None]
        plan.util = util[0] + util[1]
        plan.plain = row_sums(plan.util)
    else:
        plan.served = _serve(table, eff, read_frac, dt)
    return plan


def _serve(table, served: np.ndarray, read_frac: np.ndarray, dt: float):
    """Write the read/write amounts of ``served`` rates to ``table.io_out``.

    Returns per-slot lists: whether the slot is served at all, and the
    ops and bytes it moved (the lifetime-counter increments).
    """
    out = table.io_out
    np.multiply(served * read_frac, dt, out=out[0:2])
    np.multiply(served * (1.0 - read_frac), dt, out=out[2:4])
    ops, nbytes = (out[0:2] + out[2:4]).reshape(2, -1).tolist()
    return (served[0] > 0.0).ravel().tolist(), ops, nbytes

"""CPU core allocation: weighted water-filling with hard caps.

Models the KVM/CFS behaviour PerfCloud manipulates: every VM receives a
fair share weighted by its vCPU count, unused share spills over to busier
VMs (work-conserving), and a *hard cap* (``vcpu_quota``/``cfs_quota``)
upper-bounds a VM regardless of idle capacity — the non-work-conserving
actuator PerfCloud uses to throttle CPU antagonists (§III-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional

import numpy as np

from repro.hardware.table import row_sums, seq_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.table import GuestTable

__all__ = ["allocate_cpu", "allocate_cpu_table"]


def allocate_cpu(
    demands: Mapping[Hashable, float],
    weights: Mapping[Hashable, float],
    caps: Mapping[Hashable, Optional[float]],
    capacity: float,
) -> Dict[Hashable, float]:
    """Distribute ``capacity`` cores among contenders.

    Parameters
    ----------
    demands:
        Cores each VM would consume if unconstrained (``>= 0``).
    weights:
        Fair-share weights (vCPU counts).  Missing keys default to 1.
    caps:
        Hard caps in cores; ``None`` (or missing) means uncapped.
    capacity:
        Total physical cores available.

    Returns
    -------
    dict
        Granted cores per VM.  Invariants: ``0 <= grant <= min(demand,
        cap)`` and ``sum(grants) <= capacity`` (within float tolerance);
        when total effective demand fits, everyone gets their demand
        (work-conserving).
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity!r}")
    effective: Dict[Hashable, float] = {}
    for vm, demand in demands.items():
        if demand < 0:
            raise ValueError(f"negative CPU demand for {vm!r}: {demand!r}")
        cap = caps.get(vm)
        limit = demand if cap is None else min(demand, max(0.0, cap))
        effective[vm] = limit

    total = seq_sum(effective.values())
    if total <= capacity + 1e-12:
        return dict(effective)

    # Progressive (water-filling) allocation: repeatedly hand each still-
    # unsatisfied VM its weighted share of the remaining capacity; VMs whose
    # residual demand is below their share are granted fully and removed.
    grants: Dict[Hashable, float] = {vm: 0.0 for vm in effective}
    active = {vm for vm, d in effective.items() if d > 0}
    remaining = capacity
    for _ in range(len(effective) + 1):
        if not active or remaining <= 1e-12:
            break
        total_weight = seq_sum(max(weights.get(vm, 1.0), 1e-9) for vm in active)
        satisfied = set()
        for vm in sorted(active, key=_stable_key):
            share = remaining * max(weights.get(vm, 1.0), 1e-9) / total_weight
            residual = effective[vm] - grants[vm]
            if residual <= share + 1e-12:
                grants[vm] += residual
                satisfied.add(vm)
        if not satisfied:
            # Everyone wants at least their share: hand out shares and stop.
            for vm in active:
                share = remaining * max(weights.get(vm, 1.0), 1e-9) / total_weight
                grants[vm] += share
            remaining = 0.0
            break
        remaining = capacity - seq_sum(grants.values())
        active -= satisfied
    return grants


def _stable_key(vm: Hashable) -> str:
    """Deterministic ordering key for heterogeneous VM identifiers."""
    return str(vm)


def allocate_cpu_table(table: "GuestTable") -> List[float]:
    """Columnar :func:`allocate_cpu` over every host of a ``GuestTable``.

    Fills ``table.cpu_grant`` in place, each host against its own core
    count, and returns the granted / capacity ratio per host.  Reads
    only the CPU demand and cap rows, ``inputs[0:2]`` (the ``"cpu"`` key
    of :meth:`~repro.hardware.table.GuestTable.cached`).
    Bitwise-identical to the scalar water-filling host by host: each
    numpy elementwise op performs the exact IEEE operation the
    scalar expression did per VM, per-host sums use
    :func:`~repro.hardware.table.row_sums` (the scalar left-to-right
    order), and the round structure (who is satisfied when) is decided by
    the same ``1e-12`` comparisons, with a per-host mask standing in for
    the scalar loop's ``break``.  Preconditions (non-negative demands)
    are the caller's responsibility — the scalar oracle keeps the
    validation.
    """
    out = table.cpu_grant
    inputs = table.inputs
    np.minimum(inputs[0], np.maximum(inputs[1], 0.0), out=out)
    capacity = table.cores
    total = row_sums(out)
    over = total > table.core_limit
    if True not in over.tolist():
        return (total / capacity).tolist()

    effective = out.copy()
    out[over] = 0.0
    w = table.weight
    active = (effective > 0.0) & over[:, None]
    remaining = capacity
    pending = over
    for _ in range(table.width + 1):
        pending = pending & active.any(axis=1) & (remaining > 1e-12)
        if not pending.any():
            break
        act = active & pending[:, None]
        # Weights are small integer vCPU counts, so this sum is exact in
        # any association order despite the scalar path iterating a set.
        total_weight = np.where(pending, row_sums(np.where(act, w, 0.0)), 1.0)
        share = remaining[:, None] * w / total_weight[:, None]
        residual = effective - out
        satisfied = act & (residual <= share + 1e-12)
        # Hosts where everyone wants at least their share: hand out
        # shares and stop.
        stuck = pending & ~satisfied.any(axis=1)
        if stuck.any():
            give = act & stuck[:, None]
            out[give] += share[give]
            pending = pending & ~stuck
        out[satisfied] += residual[satisfied]
        remaining = np.where(pending, capacity - row_sums(out), remaining)
        active = active & ~satisfied
    return (row_sums(out) / capacity).tolist()

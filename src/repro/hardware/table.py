"""Struct-of-arrays mirror of every guest on a set of hosts — the data plane.

One :class:`GuestTable` covers every host of a cluster, so the CPU, disk
and memory-system kernels run once per fluid tick over all guests
instead of once per host.  Its numeric columns are padded
``hosts × width`` *slabs*: slab row ``h`` holds host ``h``'s guests in
sorted-name order (exactly the order the scalar oracle
:meth:`~repro.hardware.host.PhysicalHost.step_local` iterates), followed
by inert zero padding up to the widest host.  Every slab also has a flat
1-D view, so a guest's cell is addressed by one *slot* index
``h * width + i``:

* guests write their demand/cap/profile fields **in place** each tick
  (:meth:`repro.virt.vm.VM.publish_row` — no per-tick dict or dataclass
  construction, and an idle guest whose columns are already zero writes
  nothing at all; a parked driver, an executor with nothing to run, is
  not even polled, and its slot is not delivered to);
* the kernels (``allocate_cpu_table``, ``BlockDevice.allocate_table``,
  ``MemorySystem.evaluate_table``) read demand columns and write result
  columns for every host at once;
* :meth:`emit_grants` folds the result columns back into one reusable
  :class:`~repro.hardware.resources.ResourceGrant` per slot (grants are
  consumed synchronously during delivery and never retained, so mutating
  them in place is safe).

Each kernel splits into a *plan*, the part that draws no random
numbers, and the per-VM noise draws.  :meth:`GuestTable.cached` keys
each plan on the input rows that kernel reads, and ``inputs`` is ordered
so that every key is one contiguous run of rows; a plan is reused while
its rows and ``dt`` hold, whatever the other kernels' rows do.

Exactness rules, which keep every output bitwise equal to the scalar
oracle:

* per-host reductions use :func:`row_sums` and the scalar oracle uses
  :func:`seq_sum`; both add strictly left to right, padding adds exact
  zeros, and both map an all ``-0.0`` row to ``0.0``.  Never
  ``ndarray.sum`` (pairwise) or ``np.add.reduceat``;
* per-host branches of the scalar code become per-host masks;
* the persistent-bias and lognormal draws stay scalar, host by host in
  row order.  Every host's disk and memory system own their RNG streams,
  so only the order *within* a host matters.

Idle handling is numeric, not identity-based: a ``ZERO_DEMAND`` row is
an all-zero row, and the kernels' boolean masks reproduce the scalar
``IDLE_REQUEST`` / ``IDLE_MEM_REQUEST`` shortcuts bit for bit.  A host
whose guests are all idle skips the kernels' per-host work and keeps its
cached idle grants while it stays quiescent.

Multi-socket (NUMA) hosts are the one scalar exception: their memory
system pins VMs to sockets inside ``evaluate``, so they step through
``step_local`` and :meth:`adopt_scalar` copies the result into their
slots.  They still own slots, so flows and deliveries keep host order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.hardware.resources import ResourceGrant, ZERO_DEMAND

__all__ = ["DataPlaneStats", "GuestTable", "row_sums", "seq_sum"]

_INF = float("inf")

#: Per kernel: the ``inputs`` rows its plan reads, its cache key.
#: Memsys reads the CPU rows through ``cpu_grant``.
_KEY_ROWS = {"cpu": slice(0, 2), "memsys": slice(0, 4), "disk": slice(4, 10)}


def seq_sum(values: Iterable[float]) -> float:
    """Strictly left-to-right float sum, starting from ``0.0``.

    The reduction of the scalar oracles.  Builtin ``sum`` is not this on
    CPython 3.12 and later, which compensates float sums (Neumaier), and
    ``ndarray.sum`` sums pairwise; either can differ from :func:`row_sums`
    in the last ulp.  Starting from ``+0.0`` maps an all ``-0.0`` input
    to ``0.0``, as ``sum`` did before 3.12.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return reduce(add, values, 0.0)


#: ``+0.0`` as an array, which numpy adds faster than a Python float.
_ZERO = np.zeros(())


def row_sums(x: np.ndarray) -> np.ndarray:
    """Exact per-row sums of a slab, left to right along the last axis.

    ``np.add.accumulate`` adds strictly in sequence, so each entry equals
    :func:`seq_sum` of that row: zero padding adds exact zeros, and the
    trailing ``+ 0.0`` turns an all ``-0.0`` row into ``0.0``.
    """
    return np.add.accumulate(x, axis=-1)[..., -1] + _ZERO


def _generic_publisher(guest) -> Callable:
    """Per-tick column writer for a plain ``Guest`` protocol object.

    Mirrors exactly what ``step_local`` reads from a guest each tick:
    ``poll_demand``, ``perf_profile``, ``cpu_cap_cores`` and ``io_caps``.
    ``VM`` instances bypass this via their own ``publish_row`` fast path.
    """

    def publish(table: "GuestTable", i: int) -> int:
        d = guest.poll_demand()
        prof = guest.perf_profile()
        if prof is not table.profiles[i]:
            table.set_profile(i, prof)
        if d is ZERO_DEMAND:
            if table.row_active[i]:
                table.zero_row(i)
            return 1
        table.row_active[i] = True
        cap = guest.cpu_cap_cores()
        table.cpu_cap[i] = _INF if cap is None else cap
        iops_cap, bps_cap = guest.io_caps()
        table.iops_cap[i] = _INF if iops_cap is None else iops_cap
        table.bps_cap[i] = _INF if bps_cap is None else bps_cap
        table.cpu_demand[i] = d.cpu_cores
        table.read_iops[i] = d.read_iops
        table.write_iops[i] = d.write_iops
        table.read_bps[i] = d.read_bytes_ps
        table.write_bps[i] = d.write_bytes_ps
        table.mem_bw[i] = d.mem_bw_gbps
        table.llc_ws[i] = d.llc_ws_mb
        table.flows[i] = d.flows
        return 2

    return publish


@dataclass
class DataPlaneStats:
    """Cumulative :meth:`GuestTable.refresh` counts (single-socket hosts).

    ``rows_visited - rows_delivered`` is the number of row-ticks whose
    delivery was skipped: driverless, finished or parked guests.
    ``busy_ticks`` counts ticks with at least one busy host (the kernels
    run); ``busy_ticks - <kernel>_plan_builds`` of them reused that
    kernel's cached plan (see :meth:`GuestTable.cached`).
    """

    rows_visited: int = 0
    rows_delivered: int = 0
    busy_host_steps: int = 0
    idle_host_steps: int = 0
    busy_ticks: int = 0
    cpu_plan_builds: int = 0
    disk_plan_builds: int = 0
    memsys_plan_builds: int = 0


class GuestTable:
    """Columnar guest state of a set of hosts: demands, caps, results.

    The layout is rebuilt only when a guest is attached or detached
    anywhere (rare); between rebuilds every column is written in place.
    Row publishers return a per-slot code:

    * 0 — idle with no driver to advance: driverless, finished, or
      parked (an idle executor, see ``WorkloadDriver.idle``).  The row
      is not in :attr:`deliver_rows`: an all-zero grant is an exact
      no-op, and a parked driver is not even polled;
    * 1 — idle but the driver is alive and must still be delivered to
      (e.g. a timed driver advancing through an off-episode);
    * 2 — active.

    Per tick, :meth:`refresh` sorts the single-socket hosts into
    :attr:`busy` (at least one active slot: the kernels serve them) and
    :attr:`idle` (every slot idle: :meth:`emit_idle_grants` serves them),
    and adds the tick to :attr:`stats`.
    """

    def __init__(self, hosts: Iterable = ()) -> None:
        self.hosts: list = []
        self.dirty = True
        #: Cumulative counts, kept across layout rebuilds.
        self.stats = DataPlaneStats()
        for host in hosts:
            self.add_host(host)

    # ------------------------------------------------------------- structure
    def add_host(self, host) -> None:
        """Take a host's guests into the table (host-name order).

        The slabs are laid out lazily, on the next step after any
        change of hosts or guests.
        """
        self.hosts.append(host)
        self.hosts.sort(key=lambda h: h.name)
        host.table = self
        self.dirty = True

    def rebuild(self) -> None:
        """Re-derive the slab layout from the hosts' current guests."""
        hosts = self.hosts
        guest_names = [host.guest_names() for host in hosts]
        n_hosts = len(hosts)
        width = max((len(g) for g in guest_names), default=0) or 1
        size = n_hosts * width
        self.width = width
        #: Slots of each host, in row (sorted guest name) order.
        self.slots = [
            range(h * width, h * width + len(g))
            for h, g in enumerate(guest_names)
        ]
        self.names: List[Optional[str]] = [None] * size
        self.guests: list = [None] * size
        self.host_names: List[Optional[str]] = [None] * size
        for h, host in enumerate(hosts):
            for k, name in zip(self.slots[h], guest_names[h]):
                self.names[k] = name
                self.guests[k] = host._guests[name]
                self.host_names[k] = host.name
        #: Hosts stepped by the kernels, and the NUMA hosts stepped by
        #: their scalar ``step_local``.
        self.vector_hosts = [
            h for h, host in enumerate(hosts) if host.spec.numa_sockets == 1
        ]
        self.scalar_hosts = [
            h for h, host in enumerate(hosts) if host.spec.numa_sockets > 1
        ]
        self._vector_rows = sum(len(self.slots[h]) for h in self.vector_hosts)
        self.disks = [host.disk for host in hosts]
        self.mems = [host.memsys for host in hosts]

        # Per-host constants.
        self.cores = np.array([float(host.spec.cores) for host in hosts])
        self.core_limit = self.cores + 1e-12
        self.io_capacity = np.array(
            [[d.spec.max_iops for d in self.disks],
             [d.spec.max_bytes_per_s for d in self.disks]]
        )
        self.llc_mb = np.array([host.spec.mem.llc_mb for host in hosts])
        self.llc_col = self.llc_mb[:, None]
        self.bid_cap = 3.0 * self.llc_col
        self.bw_gbps = np.array([host.spec.mem.bandwidth_gbps for host in hosts])
        self.speed = np.array([host.spec.speed_factor for host in hosts])[:, None]

        shape = (n_hosts, width)
        # Input slabs, written in place by guests each tick, ordered so
        # each kernel reads one contiguous run of rows (its plan key, see
        # _KEY_ROWS): CPU demand and cap, the memory demands, then the
        # disk's read and write rates (side by side so one ufunc adds
        # both pairs) and caps.  +inf encodes "uncapped": min/max against
        # inf is exact.
        self.inputs = np.zeros((10,) + shape)
        self.inputs[[1, 8, 9]] = _INF
        (self.cpu_demand, self.cpu_cap, self.mem_bw, self.llc_ws,
         self.read_iops, self.read_bps, self.write_iops, self.write_bps,
         self.iops_cap, self.bps_cap) = self.inputs.reshape(10, size)
        #: Per kernel: [key rows (a view), then the dt, key-row bytes
        #: and plan of its last build].
        self._plans = {
            key: [self.inputs[rows], None, None, None]
            for key, rows in _KEY_ROWS.items()
        }
        # Fair-share weights (vCPU counts are immutable post-boot), with
        # the scalar allocator's 1e-9 floor applied once here.
        weight = np.ones(size)
        for k in self.rows():
            weight[k] = float(self.guests[k].vcpus)
        self.weight = np.maximum(weight, 1e-9).reshape(shape)
        # Perf-profile slabs, refreshed only on profile-object change.
        self.profile = np.zeros((5,) + shape)
        self.profile[0] = 1.0
        (self.base_cpi, self.llc_sens, self.bw_sens, self.mpki_min,
         self.mpki_max) = self.profile.reshape(5, size)
        self.profiles: List[Optional[object]] = [None] * size
        # Result slabs, written by the kernels.
        self.cpu_grant = np.zeros(shape)
        self.io_out = np.zeros((5,) + shape)
        (self.read_ops, self.read_bytes, self.write_ops, self.write_bytes,
         self.io_wait_ms) = self.io_out.reshape(5, size)
        self.mem_out = np.zeros((4,) + shape)
        self.mem_out[0:2] = 1.0
        self.cpi, self.cpi_eff, self.mpki, self.mem_bytes = (
            self.mem_out.reshape(4, size))

        # Per-slot object state.
        self.row_active = [False] * size     # demand columns currently nonzero
        self.flows: list = [()] * size       # NetFlowDemand tuples, per slot
        self.grants: List[Optional[ResourceGrant]] = [None] * size
        self._pubs: list = [None] * size
        for k in self.rows():
            guest = self.guests[k]
            self.grants[k] = ResourceGrant(dt=0.0)
            self._pubs[k] = (
                getattr(guest, "publish_row", None) or _generic_publisher(guest)
            )

        # Per-tick outputs of refresh (and adopt_scalar).
        self.busy: List[int] = []
        self.idle: List[int] = []
        self.flow_rows: List[int] = []       # slots with at least one flow
        self.deliver_rows: List[int] = []    # slots whose grant is delivered
        # Per-host idle-grant cache: grants hold idle values for this dt.
        self.idle_valid = [False] * n_hosts
        self._idle_dt = [-1.0] * n_hosts
        self.dirty = False

    def rows(self) -> List[int]:
        """Every occupied slot, host by host in row order."""
        return [k for r in self.slots for k in r]

    # --------------------------------------------------------------- per-row
    def set_profile(self, i: int, prof) -> None:
        """Refresh one slot's profile columns (profile object changed)."""
        self.profiles[i] = prof
        self.base_cpi[i] = prof.base_cpi
        self.llc_sens[i] = prof.llc_sensitivity
        self.bw_sens[i] = prof.bw_sensitivity
        self.mpki_min[i] = prof.mpki_min
        self.mpki_max[i] = prof.mpki_max
        self.idle_valid[i // self.width] = False

    def zero_row(self, i: int) -> None:
        """Zero one slot's demand columns (guest went idle)."""
        self.cpu_demand[i] = 0.0
        self.read_iops[i] = 0.0
        self.write_iops[i] = 0.0
        self.read_bps[i] = 0.0
        self.write_bps[i] = 0.0
        self.mem_bw[i] = 0.0
        self.llc_ws[i] = 0.0
        self.flows[i] = ()
        self.row_active[i] = False

    # ---------------------------------------------------------------- refresh
    def refresh(self) -> None:
        """Have every guest of a single-socket host publish its slot.

        Fills :attr:`busy`, :attr:`idle`, :attr:`flow_rows` and
        :attr:`deliver_rows` for this tick.  Counts the tick into
        :attr:`stats` once, not per row.  Cached kernel plans are not
        touched here: :meth:`cached` checks each against its own rows.
        """
        pubs = self._pubs
        flows = self.flows
        slots = self.slots
        busy: List[int] = []
        idle: List[int] = []
        flow_rows: List[int] = []
        deliver_rows: List[int] = []
        deliver = deliver_rows.append
        for h in self.vector_hosts:
            active = False
            for k in slots[h]:
                code = pubs[k](self, k)
                if code:
                    deliver(k)
                    if code == 2:
                        active = True
                        if flows[k]:
                            flow_rows.append(k)
            (busy if active else idle).append(h)
        self.busy = busy
        self.idle = idle
        self.flow_rows = flow_rows
        self.deliver_rows = deliver_rows
        stats = self.stats
        stats.rows_visited += self._vector_rows
        stats.rows_delivered += len(deliver_rows)
        stats.busy_host_steps += len(busy)
        stats.idle_host_steps += len(idle)
        if busy:
            stats.busy_ticks += 1

    def cached(self, key: str, build: Callable, dt: float):
        """``build(self, dt)``, reused while its key rows and ``dt`` hold.

        For the parts of a kernel that draw no random numbers.  Each
        kernel's plan is keyed on the bytes of the input rows that kernel
        reads (:data:`_KEY_ROWS`) and on ``dt``, and is rebuilt when
        either changed since its last build: equal bits in, equal bits
        out.  Churn in one kernel's rows (say, a guest's disk rate
        drawn afresh every tick) leaves the other kernels' plans in
        place.  Two invariants make the reuse exact:

        * a plan is a pure function of its key rows and of per-layout
          constants (``weight``, ``cores``, ``llc_col``, ``bw_gbps``,
          ...), which only :meth:`rebuild` changes, and it drops every
          plan;
        * a build may write only result rows that no other kernel
          writes: ``cpu_grant``, ``io_out[0:4]`` in the unsaturated
          disk plan, and ``mem_out[3]``.  Only the last build per
          kernel is kept, so those rows still hold its output when it
          is reused.
        """
        entry = self._plans[key]
        seen = entry[0].tobytes()
        if seen != entry[2] or dt != entry[1]:
            entry[1:] = dt, seen, build(self, dt)
            counter = key + "_plan_builds"
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return entry[3]

    # ----------------------------------------------------------------- grants
    def emit_grants(self, dt: float) -> None:
        """Fold result columns into the reusable grants of busy hosts."""
        coresec = self.cpu_grant * dt
        effective = (
            coresec * self.profile[0] / self.mem_out[1] * self.speed
        )
        cs = coresec.ravel().tolist()
        eff = effective.ravel().tolist()
        cpi = self.cpi.tolist()
        mpki = self.mpki.tolist()
        ro = self.read_ops.tolist()
        wo = self.write_ops.tolist()
        rb = self.read_bytes.tolist()
        wb = self.write_bytes.tolist()
        wait = self.io_wait_ms.tolist()
        mb = self.mem_bytes.tolist()
        grants = self.grants
        idle_valid = self.idle_valid
        for h in self.busy:
            for k in self.slots[h]:
                g = grants[k]
                g.dt = dt
                g.cpu_coresec = cs[k]
                g.effective_coresec = eff[k]
                g.cpi = cpi[k]
                g.mpki = mpki[k]
                g.read_ops = ro[k]
                g.write_ops = wo[k]
                g.read_bytes = rb[k]
                g.write_bytes = wb[k]
                g.io_wait_ms_per_op = wait[k]
                g.mem_bytes = mb[k]
                if g.net_bytes:
                    g.net_bytes.clear()
            idle_valid[h] = False

    def emit_idle_grants(self, dt: float) -> None:
        """Step every all-idle host: zero gauges, idle grants.

        Equivalent to the kernels on all-zero rows: each allocator
        grants zero without drawing from its RNG stream, so the only side
        effects are the utilization gauges, the disk's per-VM bias
        evictions, and all-zero grants with ``cpi = base_cpi``.  A host
        that already emitted idle grants at the same ``dt`` with no
        profile change since is skipped: nothing of this changed while it
        stayed quiescent.
        """
        names = self.names
        grants = self.grants
        idle_valid = self.idle_valid
        idle_dt = self._idle_dt
        base = None
        for h in self.idle:
            if idle_valid[h] and idle_dt[h] == dt:
                continue
            if base is None:
                base = self.base_cpi.tolist()
            host = self.hosts[h]
            host.cpu_utilization = 0.0
            disk = host.disk
            disk.utilization = 0.0
            slots = self.slots[h]
            disk._share_bias.forget_all(names[k] for k in slots)
            disk._bias.forget_all(names[k] for k in slots)
            host.memsys.bw_utilization = 0.0
            for k in slots:
                g = grants[k]
                g.dt = dt
                g.cpu_coresec = 0.0
                g.effective_coresec = 0.0
                g.cpi = base[k]
                g.mpki = 0.0
                g.read_ops = 0.0
                g.write_ops = 0.0
                g.read_bytes = 0.0
                g.write_bytes = 0.0
                g.io_wait_ms_per_op = 0.0
                g.mem_bytes = 0.0
                if g.net_bytes:
                    g.net_bytes.clear()
            idle_valid[h] = True
            idle_dt[h] = dt

    def adopt_scalar(self, h: int, res) -> None:
        """Copy a NUMA host's scalar ``HostStepResult`` into its slots.

        The scalar step already ran; only the grant, flow and delivery
        views need to line up for the cluster assembler, in slot order.
        """
        grants = res.grants
        demands = res.demands
        for k in self.slots[h]:
            name = self.names[k]
            self.grants[k] = grants[name]
            self.deliver_rows.append(k)
            flows = demands[name].flows
            self.flows[k] = flows
            if flows:
                self.flow_rows.append(k)
        self.deliver_rows.sort()
        self.flow_rows.sort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuestTable(hosts={len(self.hosts)}, dirty={self.dirty})"

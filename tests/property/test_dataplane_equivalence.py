"""Property tests: the columnar data plane matches the scalar oracle.

Hosts are stepped two ways over randomized guest schedules — through
the cluster-wide :class:`~repro.hardware.table.GuestTable` (one slab,
one call per kernel per tick) and through the scalar
``PhysicalHost.step_local`` (the per-tick dict/dataclass path, kept as
the oracle) — and every grant field must be *bitwise* equal, along with
the host gauges, the disk's lifetime counters, the persistent-bias
state and every RNG stream.  The single-host schedules deliberately
cover the shapes that earned special cases in the kernels: idle
episodes and all-idle ticks (the cached idle-grant path), drivers that
finish mid-run, driverless VMs, cgroup CPU quotas and blkio throttles
flipping between ticks, all-zero active demands, single-guest and empty
hosts, and profiles that change *inside* ``demand()`` (the
CompositeDriver pattern: the profile must be read after the demand
poll, never before).  The multi-host test steps whole clusters —
``Cluster.step`` against :func:`repro.bench.naive.naive_cluster_step` —
with hosts of very different widths, idle hosts beside busy ones, a
NUMA host in the mix, cross-host flows, and boots, destroys, migrations
and cap flips between ticks (each one rebuilds the slab).  It also
checks physical invariants of every grant.  A second multi-host
lockstep runs real framework executors (alone and paired in a
``CompositeDriver``) whose attempts are launched, speculated, killed
and reaped between and during ticks: ``Cluster.step`` parks the idle
ones, the oracle polls and delivers everyone, and grants, counters,
attempt progress and RNG streams must still be bitwise equal.

A third lockstep holds every guest's CPU and memory demands constant
while a few guests redraw one disk rate per tick, so reused CPU and
memory-system plans meet a disk plan rebuilt every tick.  Beside the
locksteps, a key-completeness test sets every input row outside a
kernel's plan key to other random values: the plan, and the result rows
its build writes, must not change by a bit.

The network fabric gets its own comparison against the scalar loop
preserved in :func:`repro.bench.naive.naive_fabric_allocate`, and the
monitor's samples are checked across a cumulative-counter reset.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.naive import naive_cluster_step, naive_fabric_allocate
from repro.frameworks.executor import CompositeDriver, ExecutorDriver
from repro.frameworks.jobs import Job, Task, TaskWork
from repro.hardware.cpu import allocate_cpu_table
from repro.hardware.disk import _disk_plan
from repro.hardware.host import PhysicalHost, step_hosts
from repro.hardware.memsys import _mem_plan
from repro.hardware.network import Flow, NetworkFabric
from repro.hardware.resources import (
    NetFlowDemand,
    PerfProfile,
    ResourceDemand,
    ZERO_DEMAND,
)
from repro.hardware.specs import R630
from repro.hardware.table import _KEY_ROWS, GuestTable, row_sums, seq_sum
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.virt.cluster import Cluster
from repro.virt.libvirt_api import per_domain_stats
from repro.virt.vm import VM


# --------------------------------------------------------------- strategies
_rates = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_small = st.floats(min_value=0.0, max_value=32.0, allow_nan=False)

_profiles = st.builds(
    PerfProfile,
    base_cpi=st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    llc_sensitivity=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    bw_sensitivity=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    mpki_min=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    mpki_max=st.floats(min_value=2.0, max_value=12.0, allow_nan=False),
)

_demands = st.one_of(
    st.just(None),  # ZERO_DEMAND tick (idle episode)
    st.builds(
        ResourceDemand,
        cpu_cores=_small,
        read_iops=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        write_iops=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        read_bytes_ps=_rates,
        write_bytes_ps=_rates,
        mem_bw_gbps=_small,
        llc_ws_mb=_small,
    ),
)

_caps = st.one_of(st.none(), st.floats(min_value=0.0, max_value=8.0,
                                       allow_nan=False))

_guest_specs = st.fixed_dictionaries({
    "vcpus": st.integers(min_value=1, max_value=4),
    "driverless": st.booleans(),
    "schedule": st.lists(
        st.tuples(_demands, st.integers(min_value=0, max_value=2)),
        min_size=0, max_size=6,
    ),
    "profiles": st.lists(_profiles, min_size=3, max_size=3),
    "quota": _caps,
    "iops_cap": st.one_of(st.none(), st.floats(min_value=0.0, max_value=5e4,
                                               allow_nan=False)),
    "bps_cap": st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e9,
                                              allow_nan=False)),
    "flow_peer": st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
})


class _ScriptedDriver:
    """Replays a per-tick schedule; finishes when it runs out.

    Each schedule entry is ``(demand_or_None, profile_index)`` — the
    profile attribute is switched *inside* ``demand()``, like the
    framework's CompositeDriver whose blend weights come from the demand
    poll.  The scalar oracle reads profiles after polling all demands;
    the columnar path must match.
    """

    def __init__(self, schedule, profiles, log=None) -> None:
        self._schedule = list(schedule)
        self._profiles = profiles
        self._i = 0
        self.profile = profiles[0]
        self._log = log

    @property
    def finished(self) -> bool:
        return self._i >= len(self._schedule)

    def demand(self):
        d, pi = self._schedule[self._i]
        self._i += 1
        self.profile = self._profiles[pi]
        return ZERO_DEMAND if d is None else d

    def consume(self, grant) -> None:
        if self._log is not None:
            self._log.append(self.name)


def _build_host(specs):
    host = PhysicalHost("prop0", R630, RngRegistry(23))
    vms = []
    for i, spec in enumerate(specs):
        vm = VM(f"vm{i:02d}", vcpus=spec["vcpus"])
        vm.cgroup.cpu.quota_cores = spec["quota"]
        vm.cgroup.throttle.iops_cap = spec["iops_cap"]
        vm.cgroup.throttle.bps_cap = spec["bps_cap"]
        if not spec["driverless"]:
            schedule = spec["schedule"]
            if spec["flow_peer"] is not None and schedule:
                d, pi = schedule[0]
                if d is not None:
                    d = dataclasses.replace(d, flows=(NetFlowDemand(
                        peer_vm=f"vm{spec['flow_peer']:02d}",
                        bytes_per_s=1e6, direction="in"),))
                    schedule = [(d, pi)] + schedule[1:]
            vm.attach_workload(_ScriptedDriver(schedule, spec["profiles"]))
        host.attach(vm)
        vms.append(vm)
    return host, vms


_GRANT_FIELDS = ("dt", "cpu_coresec", "effective_coresec", "cpi", "mpki",
                 "read_ops", "write_ops", "read_bytes", "write_bytes",
                 "io_wait_ms_per_op", "mem_bytes")


def _assert_hosts_equal(fast, slow):
    """Gauges, lifetime counters, bias state and RNG streams match."""
    assert fast.cpu_utilization == slow.cpu_utilization
    assert fast.disk.utilization == slow.disk.utilization
    assert fast.disk.total_ops_served == slow.disk.total_ops_served
    assert fast.disk.total_bytes_served == slow.disk.total_bytes_served
    assert fast.memsys.bw_utilization == slow.memsys.bw_utilization
    assert fast.disk._share_bias._state == slow.disk._share_bias._state
    assert fast.disk._bias._state == slow.disk._bias._state
    assert (fast.disk._rng.bit_generator.state
            == slow.disk._rng.bit_generator.state)
    mems = getattr(fast.memsys, "_nodes", [fast.memsys])
    oracle_mems = getattr(slow.memsys, "_nodes", [slow.memsys])
    for got, want in zip(mems, oracle_mems):
        assert got._bias._state == want._bias._state
        assert got._rng.bit_generator.state == want._rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(specs=st.lists(_guest_specs, min_size=0, max_size=5),
       ticks=st.integers(min_value=1, max_value=8))
def test_step_hosts_matches_step_local_bitwise(specs, ticks):
    fast_host, _ = _build_host(specs)
    slow_host, _ = _build_host(specs)
    table = GuestTable([fast_host])
    for _ in range(ticks):
        step_hosts(table, 1.0)
        res = slow_host.step_local(1.0)
        names = [table.names[k] for k in table.rows()]
        assert names == sorted(res.grants)
        for k in table.rows():
            g, s = table.grants[k], res.grants[table.names[k]]
            for f in _GRANT_FIELDS:
                assert getattr(g, f) == getattr(s, f), (table.names[k], f)
        # Flow demands surface in the same (row-order, demand-order)
        # sequence the scalar path emitted them.
        got_flows = [
            (table.names[k], fd)
            for k in table.flow_rows for fd in table.flows[k]
        ]
        assert got_flows == res.flow_demands
        _assert_hosts_equal(fast_host, slow_host)


# -------------------------------------------------------------- reductions
def test_seq_sum_is_strictly_sequential_on_every_interpreter():
    # Builtin sum compensates float sums on CPython >= 3.12 and would
    # return 1.0 here; the scalar oracle must add left to right.
    assert seq_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.copysign(1.0, seq_sum([-0.0, -0.0])) == 1.0
    assert seq_sum(np.array([1e16, 1.0, -1e16])) == 0.0
    assert seq_sum([]) == 0.0


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    st.lists(st.one_of(st.just(-0.0), st.floats(-1e300, 1e300)),
             min_size=0, max_size=9),
    min_size=1, max_size=5))
def test_row_sums_match_seq_sum_with_zero_padding(rows):
    width = max(len(r) for r in rows) or 1
    slab = np.zeros((len(rows), width))
    for h, r in enumerate(rows):
        slab[h, :len(r)] = r
    got = row_sums(slab).tolist()
    for h, r in enumerate(rows):
        want = seq_sum(r)
        assert got[h] == want
        assert math.copysign(1.0, got[h]) == math.copysign(1.0, want)


# ----------------------------------------------------------------- cluster
_NUMA = dataclasses.replace(R630, numa_sockets=2)
_EVENTS = ("boot", "destroy", "migrate", "caps")


@st.composite
def _worlds(draw):
    sizes = draw(st.lists(st.sampled_from([0, 1, 5, 8, 16, 40]),
                          min_size=1, max_size=4))
    ticks = draw(st.integers(min_value=1, max_value=6))
    return {
        "dts": draw(st.lists(st.sampled_from([0.5, 1.0]),
                             min_size=ticks, max_size=ticks)),
        "sizes": sizes,
        "idle": [draw(st.booleans()) for _ in sizes],
        # Scales every rate a host's guests demand: light hosts stay
        # below saturation while heavy ones saturate disk and DRAM.
        "load": [draw(st.sampled_from([0.001, 0.05, 1.0])) for _ in sizes],
        # Constant-rate drivers: inputs repeat tick after tick, so the
        # table reuses its draw-free plans while the noise keeps moving.
        "constant": draw(st.booleans()),
        "numa": draw(st.one_of(st.none(),
                               st.integers(0, len(sizes) - 1))),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "ticks": ticks,
        "events": draw(st.lists(
            st.tuples(st.integers(0, ticks - 1), st.sampled_from(_EVENTS),
                      st.integers(0, 2**31 - 1)),
            max_size=6)),
    }


_WORLD_PROFILES = [
    PerfProfile(),
    PerfProfile(base_cpi=0.9, llc_sensitivity=0.6, bw_sensitivity=0.8,
                mpki_min=1.0, mpki_max=9.0),
    PerfProfile(base_cpi=1.4, llc_sensitivity=0.1, bw_sensitivity=0.2,
                mpki_min=0.5, mpki_max=3.0),
]


def _random_demand(rng, peers, load):
    """One tick of a scripted schedule: idle, all-zero or active."""
    roll = rng.random()
    if roll < 0.3:
        return None
    if roll < 0.35:
        return ResourceDemand()

    def rate(scale):
        if rng.random() < 0.25:
            return 0.0
        return float(rng.uniform(0, scale * load))
    flows = ()
    if peers and rng.random() < 0.3:
        flows = tuple(
            NetFlowDemand(peer_vm=peers[int(rng.integers(len(peers)))],
                          bytes_per_s=rate(2e9),
                          direction="in" if rng.random() < 0.5 else "out")
            for _ in range(int(rng.integers(1, 3))))
    return ResourceDemand(
        cpu_cores=rate(12.0), read_iops=rate(6e4), write_iops=rate(6e4),
        read_bytes_ps=rate(1.5e9), write_bytes_ps=rate(1.5e9),
        mem_bw_gbps=rate(40.0), llc_ws_mb=rate(200.0), flows=flows)


def _random_caps(rng, vm):
    vm.cgroup.cpu.quota_cores = (
        None if rng.random() < 0.5 else float(rng.uniform(0, 8)))
    vm.cgroup.throttle.iops_cap = (
        None if rng.random() < 0.6 else float(rng.uniform(0, 5e4)))
    vm.cgroup.throttle.bps_cap = (
        None if rng.random() < 0.6 else float(rng.uniform(0, 1e9)))


def _boot(cluster, rng, name, host, idle, load, world, peers):
    vm = cluster.boot_vm(name, host, vcpus=int(rng.integers(1, 5)))
    _random_caps(rng, vm)
    if idle or rng.random() < 0.15:
        return  # driverless
    ticks = world["ticks"]
    if world["constant"]:
        step = (_random_demand(rng, peers, load), int(rng.integers(3)))
        schedule = [step] * (ticks + 1)
    else:
        schedule = [
            (_random_demand(rng, peers, load), int(rng.integers(3)))
            for _ in range(int(rng.integers(0, ticks + 2)))
        ]
    driver = _ScriptedDriver(schedule, _WORLD_PROFILES, cluster.delivery_log)
    driver.name = name
    vm.attach_workload(driver)


def _build_world(world):
    """A cluster, booted from ``world``; identical for identical input."""
    rng = np.random.default_rng(world["seed"])
    cluster = Cluster(Simulator(seed=world["seed"] % 1000))
    # Drivers log every delivery: the order VMs consume grants in must
    # match too (framework drivers react to each other through it).
    cluster.delivery_log = []
    hosts = []
    for h, _ in enumerate(world["sizes"]):
        spec = _NUMA if world["numa"] == h else R630
        hosts.append(cluster.add_host(f"h{h}", spec).name)
    peers = [f"h{h}v{j:02d}" for h, n in enumerate(world["sizes"])
             for j in range(n)]
    for h, n in enumerate(world["sizes"]):
        for j in range(n):
            _boot(cluster, rng, f"h{h}v{j:02d}", hosts[h], world["idle"][h],
                  world["load"][h], world, peers)
    return cluster, rng


def _apply(cluster, rng, event, arg, label, world):
    names = sorted(cluster.vms)
    hosts = sorted(cluster.hosts)
    if event == "boot":
        _boot(cluster, rng, f"new{label}", hosts[arg % len(hosts)],
              False, 1.0, world, names)
    elif names and event == "destroy":
        cluster.destroy_vm(names[arg % len(names)])
    elif names and event == "migrate":
        cluster.migrate_vm(names[arg % len(names)],
                           hosts[(arg // 7) % len(hosts)])
    elif names and event == "caps":
        _random_caps(rng, cluster.vms[names[arg % len(names)]])


def _assert_physical(cluster, grants, dt):
    for host in cluster.hosts.values():
        names = host.guest_names()
        cores = [grants[n].cpu_coresec / dt for n in names]
        assert seq_sum(cores) <= host.spec.cores * (1 + 1e-12)
        for n, used in zip(names, cores):
            vm = cluster.vms[n]
            assert used <= vm.cpu_cap_cores() * (1 + 1e-12) + 1e-300
            g = grants[n]
            iops_cap = vm.cgroup.throttle.iops_cap
            if iops_cap is not None:
                served = (g.read_ops + g.write_ops) / dt
                assert served <= iops_cap * (1 + 1e-12) + 1e-300
            assert g.mem_bytes >= 0.0 and math.isfinite(g.mem_bytes)


@settings(max_examples=100, deadline=None)
@given(world=_worlds())
def test_cluster_step_matches_per_host_oracles_bitwise(world):
    fast, fast_rng = _build_world(world)
    slow, slow_rng = _build_world(world)
    for tick, dt in enumerate(world["dts"]):
        for i, (when, event, arg) in enumerate(world["events"]):
            if when == tick:
                _apply(fast, fast_rng, event, arg, i, world)
                _apply(slow, slow_rng, event, arg, i, world)
        fast.step(dt)
        want = naive_cluster_step(slow, dt)
        table = fast.table
        got = {table.names[k]: table.grants[k] for k in table.rows()}
        assert sorted(got) == sorted(want)
        for name, g in got.items():
            s = want[name]
            for f in _GRANT_FIELDS:
                assert getattr(g, f) == getattr(s, f), (name, f)
            assert g.net_bytes == s.net_bytes, name
        for name, vm in fast.vms.items():
            assert vm.cgroup.snapshot() == slow.vms[name].cgroup.snapshot()
        for name, host in fast.hosts.items():
            _assert_hosts_equal(host, slow.hosts[name])
        assert fast.fabric.utilization == slow.fabric.utilization
        assert fast.delivery_log == slow.delivery_log
        _assert_physical(fast, got, dt)


# ------------------------------------------------------------ plan reuse
@st.composite
def _churn_worlds(draw):
    return {
        "sizes": draw(st.lists(st.sampled_from([1, 5, 16]),
                               min_size=1, max_size=3)),
        "load": draw(st.sampled_from([0.001, 0.05, 1.0])),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "ticks": draw(st.integers(min_value=2, max_value=8)),
    }


_DISK_RATES = (("read_iops", 6e4), ("write_iops", 6e4),
               ("read_bytes_ps", 1.5e9), ("write_bytes_ps", 1.5e9))


def _build_churn_world(world):
    """Constant CPU and memory demands; some guests redraw their disk
    rates every tick, so only the disk plan is ever stale."""
    rng = np.random.default_rng(world["seed"])
    cluster = Cluster(Simulator(seed=world["seed"] % 1000))
    cluster.delivery_log = []
    load = world["load"]
    for h, n in enumerate(world["sizes"]):
        host = cluster.add_host(f"h{h}", R630).name
        for j in range(n):
            name = f"h{h}v{j:02d}"
            vm = cluster.boot_vm(name, host, vcpus=int(rng.integers(1, 5)))
            _random_caps(rng, vm)
            base = _random_demand(rng, (), load)
            pi = int(rng.integers(3))
            schedule = [(base, pi)]
            churn = base is not None and rng.random() < 0.3
            for _ in range(world["ticks"]):
                d = schedule[-1][0]
                if churn:
                    # One disk rate per tick, so a key that misses any
                    # one of them reuses a stale plan.
                    field, scale = _DISK_RATES[int(rng.integers(4))]
                    d = dataclasses.replace(
                        d, **{field: float(rng.uniform(0, scale * load))})
                schedule.append((d, pi))
            driver = _ScriptedDriver(schedule, _WORLD_PROFILES,
                                     cluster.delivery_log)
            driver.name = name
            vm.attach_workload(driver)
    return cluster


@settings(max_examples=60, deadline=None)
@given(world=_churn_worlds())
def test_reused_plans_meet_disk_churn_bitwise(world):
    fast = _build_churn_world(world)
    slow = _build_churn_world(world)
    for _ in range(world["ticks"]):
        fast.step(1.0)
        want = naive_cluster_step(slow, 1.0)
        table = fast.table
        for k in table.rows():
            g, s = table.grants[k], want[table.names[k]]
            for f in _GRANT_FIELDS:
                assert getattr(g, f) == getattr(s, f), (table.names[k], f)
        for name, host in fast.hosts.items():
            _assert_hosts_equal(host, slow.hosts[name])
        assert fast.delivery_log == slow.delivery_log
    # The CPU and memory rows never changed: one build each, at most.
    stats = fast.table.stats
    assert stats.cpu_plan_builds <= 1
    assert stats.memsys_plan_builds <= 1


def _fingerprint(x):
    """Bit-exact, comparable form of a plan or a result slab."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [_fingerprint(v) for v in x]
    if isinstance(x, SimpleNamespace):
        return {k: _fingerprint(v) for k, v in sorted(vars(x).items())}
    return x


#: Per ``inputs`` row: the largest value drawn, and whether the row is
#: a cap.  A quarter of the cells are 0.0, or +inf ("uncapped") in a
#: cap row; ``load`` scales the disk rates, rows 4-7.
_ROW_SCALES = ((12.0, False), (8.0, True), (40.0, False), (200.0, False),
               (6e4, False), (1.5e9, False), (6e4, False), (1.5e9, False),
               (5e4, True), (1e9, True))


def _random_inputs(rng, shape, load):
    out = np.empty((len(_ROW_SCALES),) + shape)
    for r, (scale, cap) in enumerate(_ROW_SCALES):
        vals = rng.uniform(0.0, scale * (1.0 if cap or r < 4 else load),
                           size=shape)
        vals[rng.random(shape) < 0.25] = np.inf if cap else 0.0
        out[r] = vals
    return out


def _kernel_outputs(table, dt):
    """Build every kernel's plan from the current inputs, in
    ``step_hosts`` order; each kernel's plan and the result rows its
    build writes."""
    table.io_out[...] = -1.0
    table.mem_out[3] = -1.0
    util = allocate_cpu_table(table)
    disk = _disk_plan(table, dt)
    mem = _mem_plan(table, dt)
    return {
        "cpu": _fingerprint([util, table.cpu_grant]),
        "disk": _fingerprint([disk, table.io_out[0:4]]),
        "memsys": _fingerprint([mem, table.mem_out[3]]),
    }


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=12),
                      min_size=1, max_size=3),
       load=st.sampled_from([0.001, 0.05, 1.0]),
       dt=st.sampled_from([0.5, 1.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_plan_keys_cover_every_row_a_kernel_reads(sizes, load, dt, seed):
    # Rows outside a kernel's key may take any values: its plan, and the
    # result rows the build writes, must not change by a bit.  A kernel
    # edit that reads a row without adding it to the key fails here.
    rng = np.random.default_rng(seed)
    hosts = []
    for h, n in enumerate(sizes):
        host = PhysicalHost(f"p{h}", R630, RngRegistry(23))
        for i in range(n):
            host.attach(VM(f"vm{i:02d}", vcpus=int(rng.integers(1, 5))))
        hosts.append(host)
    table = GuestTable(hosts)
    table.rebuild()
    shape = table.inputs.shape[1:]
    base = _random_inputs(rng, shape, load)
    for kernel, rows in _KEY_ROWS.items():
        table.inputs[...] = base
        want = _kernel_outputs(table, dt)[kernel]
        other = _random_inputs(rng, shape, load)
        outside = np.ones(len(_ROW_SCALES), dtype=bool)
        outside[rows] = False
        table.inputs[outside] = other[outside]
        assert _kernel_outputs(table, dt)[kernel] == want, kernel


# ------------------------------------------------------ parked executors
class _Heartbeat:
    """Stand-in for the framework schedulers' between-tick heartbeat.

    Launches fresh tasks and speculative copies into free slots, kills
    attempts through their executor or behind its back (the executor
    reaps those on delivery), and on completion kills the losing copies
    mid-tick, as ``FrameworkScheduler._attempt_done`` does.  Every
    decision draws from ``rng``, so equal worlds make equal decisions.
    """

    def __init__(self, rng, peers) -> None:
        self.rng = rng
        self.peers = peers
        self.now = 0.0
        self.executors = []
        self.owner = {}
        self.attempts = []
        self.done_log = []

    def executor(self, vm_name):
        ex = ExecutorDriver(vm_name, int(self.rng.integers(1, 3)),
                            clock=lambda: self.now,
                            on_attempt_done=self._done)
        self.executors.append(ex)
        return ex

    def _done(self, attempt) -> None:
        self.done_log.append((attempt.vm_name, attempt.id, self.now))
        if attempt.task.completed:
            attempt.kill(self.now)
            return
        for loser in attempt.task.complete_with(attempt, self.now):
            self.owner[loser].kill(loser)

    def _task(self):
        rng = self.rng
        n = len(self.attempts)
        job = Job(f"j{n}", "bench", "mapreduce", self.now)
        job.profile = _WORLD_PROFILES[int(rng.integers(3))]

        def amount(scale):
            return 0.0 if rng.random() < 0.3 else float(rng.uniform(0, scale))
        read = amount(4e8)
        write = amount(2e8)
        net = {}
        if rng.random() < 0.4:
            net[self.peers[int(rng.integers(len(self.peers)))]] = amount(2e8)
        task = Task(f"j{n}/t", job, "map", TaskWork(
            cpu_coresec=amount(3.0), read_bytes=read, read_ops=read / 6.5e4,
            write_bytes=write, write_ops=write / 6.5e4, net_in=net,
            llc_ws_mb=amount(20.0), mem_bw_gbps=amount(4.0)))
        task.nominal_s = float(rng.uniform(0.5, 4.0))
        job.add_task(task)
        return task

    def beat(self) -> None:
        rng = self.rng
        for ex in self.executors:
            for a in list(ex.running):
                roll = rng.random()
                if roll < 0.05:
                    ex.kill(a)
                elif roll < 0.1:
                    a.kill(self.now)
            while ex.free_slots and rng.random() < 0.35:
                live = [a for a in self.attempts
                        if a.running and not a.task.completed]
                speculative = bool(live) and rng.random() < 0.3
                task = (live[int(rng.integers(len(live)))].task
                        if speculative else self._task())
                attempt = task.new_attempt(ex.vm_name, self.now,
                                           speculative=speculative)
                ex.launch(attempt)
                self.owner[attempt] = ex
                self.attempts.append(attempt)


@st.composite
def _framework_worlds(draw):
    sizes = draw(st.lists(st.sampled_from([1, 3, 6, 12]),
                          min_size=1, max_size=3))
    ticks = draw(st.integers(min_value=3, max_value=12))
    return {
        "sizes": sizes,
        "numa": draw(st.one_of(st.none(),
                               st.integers(0, len(sizes) - 1))),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "dts": draw(st.lists(st.sampled_from([0.5, 1.0]),
                             min_size=ticks, max_size=ticks)),
    }


def _build_framework_world(world):
    """Executors, composites, scripted and driverless guests."""
    rng = np.random.default_rng(world["seed"])
    cluster = Cluster(Simulator(seed=world["seed"] % 1000))
    peers = [f"h{h}v{j:02d}" for h, n in enumerate(world["sizes"])
             for j in range(n)]
    beat = _Heartbeat(rng, peers)
    for h, n in enumerate(world["sizes"]):
        host = cluster.add_host(
            f"h{h}", _NUMA if world["numa"] == h else R630).name
        for j in range(n):
            name = f"h{h}v{j:02d}"
            vm = cluster.boot_vm(name, host, vcpus=int(rng.integers(1, 5)))
            roll = rng.random()
            if roll < 0.45:
                vm.attach_workload(beat.executor(name))
            elif roll < 0.75:
                vm.attach_workload(CompositeDriver(
                    [beat.executor(name), beat.executor(name)]))
            elif roll < 0.9:
                schedule = [
                    (_random_demand(rng, peers, 0.05), int(rng.integers(3)))
                    for _ in range(len(world["dts"]) + 1)
                ]
                vm.attach_workload(_ScriptedDriver(schedule, _WORLD_PROFILES))
    return cluster, beat


_ATTEMPT_FIELDS = ("state", "end_time", "rem_cpu", "rem_read_bytes",
                   "rem_read_ops", "rem_write_bytes", "rem_write_ops",
                   "rem_net", "progress_log")


@settings(max_examples=60, deadline=None)
@given(world=_framework_worlds())
def test_cluster_step_parks_idle_executors_bitwise(world):
    fast, fast_beat = _build_framework_world(world)
    slow, slow_beat = _build_framework_world(world)
    for dt in world["dts"]:
        fast_beat.beat()
        slow_beat.beat()
        # Rows the table must park this tick: idle executors and
        # composites on single-socket hosts.
        parked = {
            name for name, vm in fast.vms.items()
            if getattr(vm.driver, "idle", False)
            and fast.hosts[vm.host_name].spec.numa_sockets == 1
        }
        fast.step(dt)
        want = naive_cluster_step(slow, dt)
        table = fast.table
        delivered = {table.names[k] for k in table.deliver_rows}
        assert not parked & delivered
        got = {table.names[k]: table.grants[k] for k in table.rows()}
        assert sorted(got) == sorted(want)
        for name, g in got.items():
            s = want[name]
            for f in _GRANT_FIELDS:
                assert getattr(g, f) == getattr(s, f), (name, f)
            assert g.net_bytes == s.net_bytes, name
        for name, vm in fast.vms.items():
            assert vm.cgroup.snapshot() == slow.vms[name].cgroup.snapshot()
        for name, host in fast.hosts.items():
            _assert_hosts_equal(host, slow.hosts[name])
        assert fast.fabric.utilization == slow.fabric.utilization
        assert len(fast_beat.attempts) == len(slow_beat.attempts)
        for a, b in zip(fast_beat.attempts, slow_beat.attempts):
            for f in _ATTEMPT_FIELDS:
                assert getattr(a, f) == getattr(b, f), (a.id, f)
        assert fast_beat.done_log == slow_beat.done_log
        streams = fast.sim.rng._streams
        assert sorted(streams) == sorted(slow.sim.rng._streams)
        for name, gen in streams.items():
            assert (gen.bit_generator.state
                    == slow.sim.rng._streams[name].bit_generator.state)
        assert (fast_beat.rng.bit_generator.state
                == slow_beat.rng.bit_generator.state)
        fast_beat.now += dt
        slow_beat.now += dt


# ------------------------------------------------------------------ fabric
_flow_lists = st.lists(
    st.builds(
        Flow,
        src_vm=st.integers(min_value=0, max_value=30).map(lambda i: f"s{i}"),
        dst_vm=st.integers(min_value=0, max_value=30).map(lambda i: f"d{i}"),
        src_host=st.integers(min_value=0, max_value=5).map(lambda i: f"h{i}"),
        dst_host=st.integers(min_value=0, max_value=5).map(lambda i: f"h{i}"),
        bytes_per_s=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=5e9, allow_nan=False),
        ),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(flows=_flow_lists,
       dt=st.sampled_from([0.25, 0.5, 1.0]),
       nic=st.floats(min_value=1e8, max_value=1e10, allow_nan=False))
def test_fabric_matches_naive_loop_bitwise(flows, dt, nic):
    nics = {f"h{i}": nic for i in range(6)}
    fabric = NetworkFabric(nics)
    got = fabric.allocate(flows, dt)
    want, want_util = naive_fabric_allocate(nics, flows, dt)
    assert got == want
    assert fabric.utilization == want_util
    for vals in fabric.utilization.values():
        assert all(math.isfinite(v) for v in vals)


def test_fabric_rejects_negative_and_unknown_like_naive():
    nics = {"h0": 1e9, "h1": 1e9}
    fabric = NetworkFabric(nics)
    bad = [Flow("a", "b", "h0", "h1", -1.0)]
    for op in (lambda: fabric.allocate(bad, 1.0),
               lambda: naive_fabric_allocate(nics, bad, 1.0)):
        try:
            op()
        except ValueError as e:
            assert "negative flow demand" in str(e)
        else:  # pragma: no cover - defends the test itself
            raise AssertionError("negative demand accepted")
    unknown = [Flow("a", "b", "h0", "nope", 1.0)]
    for op in (lambda: fabric.allocate(unknown, 1.0),
               lambda: naive_fabric_allocate(nics, unknown, 1.0)):
        try:
            op()
        except KeyError as e:
            assert "nope" in str(e)
        else:  # pragma: no cover
            raise AssertionError("unknown host accepted")


# ----------------------------------------------------------------- monitor
class _FakeDomain:
    def __init__(self, name, counters) -> None:
        self._name = name
        self._counters = counters

    def name(self):
        return self._name

    def blkioStats(self):
        c = self._counters
        return {"io_wait_time_ms": c["wait"], "io_serviced": c["ops"],
                "io_service_bytes": c["bytes"]}

    def perfStats(self):
        c = self._counters
        return {"cycles": c["cycles"], "instructions": c["instr"],
                "llc_references": c["refs"], "llc_misses": c["llc"]}

    def cpuStats(self):
        return {"cpu_time_core_seconds": self._counters["cpu"]}


class _FakeConn:
    def __init__(self, domains) -> None:
        self._domains = domains

    def listAllDomains(self):
        return self._domains

    def getAllDomainStats(self):
        return per_domain_stats(self.listAllDomains())


def test_monitor_survives_counter_reset():
    from repro.core.config import PerfCloudConfig
    from repro.core.monitor import PerformanceMonitor

    counters = {"wait": 0.0, "ops": 0.0, "bytes": 0.0, "cycles": 0.0,
                "instr": 0.0, "refs": 0.0, "llc": 0.0, "cpu": 0.0}
    conn = _FakeConn([_FakeDomain("vm0", counters)])
    mon = PerformanceMonitor(conn, PerfCloudConfig())

    def advance(now):
        for k in counters:
            counters[k] += 10.0
        return mon.sample(now)

    assert advance(5.0) == {}          # first observation: no delta yet
    out = advance(10.0)
    assert set(out) == {"vm0"}
    first = out["vm0"]
    out = advance(15.0)
    # Identical deltas at identical EWMA state after two equal intervals
    # mean equal samples field for field (EWMA of a constant stream is
    # that constant).
    assert out["vm0"].cpi == first.cpi
    assert out["vm0"].iowait_ratio == first.iowait_ratio

    # A counter running backwards (guest reboot) restarts the cursor
    # without emitting garbage, and sampling resumes after.
    counters["cycles"] -= 1000.0
    assert advance(20.0) == {}
    assert mon.stats.counter_resets == 1
    out = advance(25.0)
    assert set(out) == {"vm0"}
    assert mon.stats.counter_resets == 1

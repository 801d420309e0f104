"""Unit tests for parked guests: idle executors skip the per-tick protocol.

A driver whose ``idle`` attribute is true is neither polled
(``demand``) nor delivered to (``consume``) by ``Cluster.step``; its row
publishes delivery code 0 with ``IDLE_PROFILE``.  Only an empty slot
list parks an executor, a composite parks only when every child does,
and duck-typed drivers without the attribute are never parked.
"""

from repro.frameworks.executor import CompositeDriver, ExecutorDriver
from repro.frameworks.jobs import Job, Task, TaskWork
from repro.hardware.resources import (
    IDLE_PROFILE,
    ZERO_DEMAND,
    PerfProfile,
    ResourceDemand,
)
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster


class _CountingExecutor(ExecutorDriver):
    """An executor that counts the guest-protocol calls it receives."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.polls = 0
        self.deliveries = 0

    def demand(self):
        self.polls += 1
        return super().demand()

    def consume(self, grant) -> None:
        self.deliveries += 1
        super().consume(grant)


class _Duck:
    """Idle duck-typed driver with no ``idle`` attribute."""

    profile = IDLE_PROFILE

    def __init__(self) -> None:
        self.polls = 0
        self.deliveries = 0

    def demand(self):
        self.polls += 1
        return ZERO_DEMAND

    def consume(self, grant) -> None:
        self.deliveries += 1


class _Always:
    """Constant CPU demand; duck-typed, so never parked."""

    def demand(self):
        return ResourceDemand(cpu_cores=1.0)

    def consume(self, grant) -> None:
        pass


def _world(driver_factory):
    cluster = Cluster(Simulator(seed=0))
    cluster.add_host("h0")
    vm = cluster.boot_vm("vm0", "h0")
    # A busy neighbour, so the host runs the kernels, not the idle path.
    cluster.boot_vm("vm1", "h0").attach_workload(_Always())
    driver = driver_factory(lambda: cluster.sim.now)
    vm.attach_workload(driver)
    return cluster, vm, driver


def _executor(clock, **kwargs):
    return _CountingExecutor("vm0", 2, clock=clock, **kwargs)


def _attempt(cpu=2.0):
    job = Job("j", "bench", "mapreduce", 0.0)
    job.profile = PerfProfile(base_cpi=1.3)
    task = Task("j/t0", job, "map", TaskWork(cpu_coresec=cpu, llc_ws_mb=4.0))
    task.nominal_s = 2.0
    job.add_task(task)
    return task.new_attempt("vm0", 0.0)


def _slot(cluster, name):
    return cluster.table.names.index(name)


def test_idle_executor_is_neither_polled_nor_delivered():
    cluster, vm, ex = _world(_executor)
    for _ in range(3):
        cluster.step(1.0)
    table = cluster.table
    k = _slot(cluster, "vm0")
    assert ex.idle
    assert k not in table.deliver_rows
    assert _slot(cluster, "vm1") in table.deliver_rows
    assert ex.polls == ex.deliveries == 0
    assert table.profiles[k] is IDLE_PROFILE
    assert vm.publish_row(table, k) == 0
    assert ex.polls == 0
    assert all(v == 0.0 for v in vm.cgroup.snapshot().values())


def test_launch_between_ticks_unparks_the_row():
    done = []
    cluster, vm, ex = _world(
        lambda clock: _executor(clock, on_attempt_done=done.append))
    cluster.step(1.0)
    attempt = _attempt()
    ex.launch(attempt)
    assert not ex.idle
    cluster.step(1.0)
    k = _slot(cluster, "vm0")
    assert k in cluster.table.deliver_rows
    assert ex.polls == ex.deliveries == 1
    assert attempt.rem_cpu < 2.0
    assert vm.cgroup.cpu.usage_core_seconds > 0.0
    for _ in range(20):
        cluster.step(1.0)
        if done:
            break
    assert done == [attempt]
    # Reaped: the next tick parks the row again.
    calls = (ex.polls, ex.deliveries)
    cluster.step(1.0)
    assert k not in cluster.table.deliver_rows
    assert (ex.polls, ex.deliveries) == calls


def test_composite_is_parked_only_when_every_child_is():
    children = []

    def composite(clock):
        children.extend([_executor(clock), _executor(clock)])
        return CompositeDriver(children)

    cluster, _, comp = _world(composite)
    cluster.step(1.0)
    k = _slot(cluster, "vm0")
    assert comp.idle
    assert k not in cluster.table.deliver_rows
    children[1].launch(_attempt())
    assert not comp.idle
    cluster.step(1.0)
    assert k in cluster.table.deliver_rows
    assert [c.polls for c in children] == [1, 1]
    assert [c.deliveries for c in children] == [1, 1]
    # A child that never parks keeps the composite unparked.
    assert not CompositeDriver([ExecutorDriver("x", 1, clock=float),
                                _Duck()]).idle


def test_idle_composite_profile_equals_the_parked_row_profile():
    comp = CompositeDriver([ExecutorDriver("vm0", 1, clock=float),
                            ExecutorDriver("vm0", 1, clock=float)])
    assert comp.demand() is ZERO_DEMAND
    assert comp.profile == IDLE_PROFILE


def test_executor_holding_only_killed_attempts_is_delivered_and_reaps():
    cluster, _, ex = _world(_executor)
    attempt = _attempt(cpu=50.0)
    ex.launch(attempt)
    cluster.step(1.0)
    attempt.kill(cluster.sim.now)  # behind the executor's back
    assert not ex.idle
    cluster.step(1.0)
    assert _slot(cluster, "vm0") in cluster.table.deliver_rows
    assert ex.deliveries == 2
    assert ex.running == [] and ex.idle
    cluster.step(1.0)
    assert ex.deliveries == 2


def test_driver_without_idle_attribute_is_never_parked():
    cluster, vm, duck = _world(lambda clock: _Duck())
    for _ in range(3):
        cluster.step(1.0)
    k = _slot(cluster, "vm0")
    assert k in cluster.table.deliver_rows
    assert duck.polls == duck.deliveries == 3
    assert vm.publish_row(cluster.table, k) == 1


def test_dataplane_stats_count_parked_rows():
    cluster, _, ex = _world(_executor)
    for _ in range(4):
        cluster.step(1.0)
    stats = cluster.table.stats
    assert stats.rows_visited == 8
    assert stats.rows_delivered == 4  # only the busy neighbour
    assert (stats.busy_host_steps, stats.idle_host_steps) == (4, 0)

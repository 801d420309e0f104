"""Hooks the end-to-end benchmark installs on the program from outside.

The benchmark never edits ``repro``: it replaces public functions and
methods with timing wrappers while a pass runs and restores them after.
Two kinds of hooks exist.

* :class:`Probe` is always installed.  It costs one extra call per
  cluster step plus a handful per simulated run, and it feeds the
  end-to-end numbers: a timestamp every control interval of every world
  (the interval percentiles), guest-rows stepped, set-up time (testbed
  build and PerfCloud deploy), what each deployed PerfCloud did
  (recorded when it is closed; the digests and invariants read it), and
  a reference-loop sample every :data:`REF_EVERY_S` of host time, which
  tells how fast this process could run at that moment (see
  :func:`reference_chunk`).
* :class:`Tracer` is installed only on traced passes.  It wraps one
  function per layer boundary and keeps closed self-time accounting:
  each wrapper charges its duration minus its wrapped children's to its
  metric, so the self times of one pass sum exactly to the duration of
  the outermost wrapper.  Coarse boundaries (engine runs, cluster
  steps, control ticks, the pass itself) also record spans; per-guest
  calls only add to per-metric accumulators.

A target that no longer exists in the program is skipped, and its
metric reads 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
import weakref
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

clock = time.perf_counter

#: (module, attribute path, metric key, records a span) for every
#: function a traced pass wraps.  Several targets may share a metric.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    # sim: the event loop; unwrapped event callbacks land here too.
    ("repro.sim.engine", "Simulator.run", "sim.self_s", True),
    # virt: cluster assembly, guest rows, grant delivery, libvirt facade.
    ("repro.virt.cluster", "Cluster.step", "virt.step_self_s", True),
    ("repro.virt.vm", "VM.publish_row", "virt.publish_row_s", False),
    ("repro.virt.vm", "VM.deliver", "virt.deliver_s", False),
    ("repro.virt.libvirt_api", "Domain.setSchedulerParameters", "virt.actuate_s", False),
    ("repro.virt.libvirt_api", "Domain.setBlockIoTune", "virt.actuate_s", False),
    ("repro.virt.libvirt_api", "Connection.listAllDomains", "virt.libvirt_read_s", False),
    ("repro.virt.libvirt_api", "Connection.lookupByName", "virt.libvirt_read_s", False),
    ("repro.virt.libvirt_api", "Domain.blkioStats", "virt.libvirt_read_s", False),
    ("repro.virt.libvirt_api", "Domain.perfStats", "virt.libvirt_read_s", False),
    ("repro.virt.libvirt_api", "Domain.cpuStats", "virt.libvirt_read_s", False),
    ("repro.virt.libvirt_api", "Domain.blockIoTune", "virt.libvirt_read_s", False),
    ("repro.virt.libvirt_api", "Domain.schedulerParameters", "virt.libvirt_read_s", False),
    ("repro.cloud.nova", "CloudManager.boot", "cloud.boot_s", False),
    # hardware: the host data plane and its kernels.
    ("repro.hardware.host", "PhysicalHost.step_table", "hardware.step_table_s", False),
    ("repro.hardware.host", "PhysicalHost.step_local", "hardware.step_local_s", False),
    ("repro.hardware.table", "GuestTable.adopt_scalar", "hardware.step_local_s", False),
    ("repro.hardware.table", "GuestTable.refresh", "hardware.refresh_s", False),
    ("repro.hardware.host", "allocate_cpu_table", "hardware.cpu_s", False),
    ("repro.hardware.host", "allocate_cpu", "hardware.cpu_s", False),
    ("repro.hardware.disk", "BlockDevice.allocate_table", "hardware.disk_s", False),
    ("repro.hardware.disk", "BlockDevice.allocate", "hardware.disk_s", False),
    ("repro.hardware.memsys", "MemorySystem.evaluate_table", "hardware.memsys_s", False),
    ("repro.hardware.memsys", "MemorySystem.evaluate", "hardware.memsys_s", False),
    ("repro.hardware.network", "NetworkFabric.allocate", "hardware.fabric_s", False),
    ("repro.hardware.table", "GuestTable.emit_grants", "hardware.emit_s", False),
    ("repro.hardware.table", "GuestTable.emit_idle_grants", "hardware.emit_s", False),
    # frameworks and workloads: schedulers and the drivers inside VMs.
    ("repro.frameworks.scheduler", "FrameworkScheduler.heartbeat", "frameworks.heartbeat_s", False),
    ("repro.frameworks.executor", "ExecutorDriver.demand", "frameworks.driver_s", False),
    ("repro.frameworks.executor", "ExecutorDriver.consume", "frameworks.driver_s", False),
    ("repro.frameworks.executor", "CompositeDriver.demand", "frameworks.driver_s", False),
    ("repro.frameworks.executor", "CompositeDriver.consume", "frameworks.driver_s", False),
    ("repro.workloads.antagonists", "FioRandomRead.demand", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "FioRandomRead.consume", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "StreamBenchmark.demand", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "StreamBenchmark.consume", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "SysbenchOltp.demand", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "SysbenchOltp.consume", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "SysbenchCpu.demand", "workloads.driver_s", False),
    ("repro.workloads.antagonists", "SysbenchCpu.consume", "workloads.driver_s", False),
    # core: the per-host control loop; control_interval's self time is
    # the remainder (inventory, CUBIC control, reconciliation).
    ("repro.core.shards", "ShardedControlPlane.tick", "core.tick_s", True),
    ("repro.core.node_manager", "NodeManager.control_interval", "core.complete_s", False),
    ("repro.core.monitor", "PerformanceMonitor.sample", "core.sample_s", False),
    ("repro.core.node_manager", "compute_verdict", "core.compute_verdict_s", False),
    ("repro.core.detector", "InterferenceDetector.evaluate", "core.detect_s", False),
    ("repro.core.identification", "AntagonistIdentifier.identify", "core.identify_s", False),
    ("repro.core.identification", "AntagonistIdentifier.judge", "core.judge_s", False),
    ("repro.core.perfcloud", "PerfCloud.__init__", "core.deploy_s", False),
    # metrics: the columnar plane and the Pearson kernel.
    ("repro.metrics.plane", "MetricPlane.ingest", "metrics.ingest_s", False),
    ("repro.core.identification", "pearson_deviates", "metrics.pearson_s", False),
    # experiments: figure assembly, the serial fan-out, testbed build.
    ("repro.experiments.figures", "fig9", "experiments.figure_s", True),
    ("repro.experiments.figures", "fig11", "experiments.figure_s", True),
    ("repro.experiments.figures", "run_many", "experiments.run_many_self_s", False),
    ("repro.experiments.figures", "build_testbed", "experiments.build_s", False),
    ("repro.experiments.harness", "Testbed.deploy_perfcloud", "experiments.build_s", False),
)

#: Iterations of the reference loop in one sample.
REF_ITERATIONS = 5_000
#: The duration one reference sample is defined to take at reference
#: speed: about its fastest reading on the 2-vCPU box the baseline was
#: recorded on.  Host times are reported scaled to that speed.
REF_NOMINAL_S = 1.1e-3
#: Least host time between two reference samples taken inside a pass.
REF_EVERY_S = 0.1


def reference_chunk() -> float:
    """A fixed pure-Python loop whose duration tracks the speed of this
    process right now.

    The box the benchmark runs on is shared: identical code reads up to
    1.6x slower while other tenants load its cores, in phases that last
    seconds to minutes.  Dividing a host time by the median duration of
    this loop, sampled throughout the same run, cancels most of that.
    Integer arithmetic and dict traffic slow down differently under
    contention, and the workloads mix both, so the loop does both.
    """
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(REF_ITERATIONS):
        k = i & 63
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] % 7.0 + i * i % 7
    return acc


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module:path``, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if getattr(owner, attr, None) is None:
        return None
    return owner, attr


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        own = isinstance(owner, type) and attr not in owner.__dict__
        self._saved.append((owner, attr, getattr(owner, attr, None), own))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old, inherited = self._saved.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Probe:
    """Always-on hooks: interval clock, set-up timer, PerfCloud records
    and reference-speed samples.

    ``interval_steps`` is the number of cluster steps per control
    interval (interval_s / dt; 5 for every workload here).
    """

    def __init__(self, interval_steps: int) -> None:
        self.interval_steps = int(interval_steps)
        self._patches = _Patches()
        #: Durations of every reference sample this run (all passes).
        self.reference_s: List[float] = []
        #: Whether passes take in-pass reference samples (traced passes
        #: do not, so the samples stay out of their layer times).
        self.sampling = True
        self._next_ref = 0.0
        self.reset()

    def reset(self) -> None:
        """Clear everything one pass accumulated."""
        #: Host seconds per control interval, one sample per interval
        #: of every world stepped.  Reference samples fall between
        #: intervals, never inside one.
        self.intervals: List[float] = []
        #: Guest rows stepped (VMs present at each cluster step).
        self.vm_steps = 0
        self.setup_s = 0.0
        #: Host seconds this pass spent in reference samples.
        self.sampling_s = 0.0
        #: One dict per PerfCloud closed, in close order.
        self.deployments: List[dict] = []
        self._last: Dict[int, float] = {}
        # Weak, not ids: a closed PerfCloud freed mid-pass can hand its
        # address to the next one, which must still be recorded.
        self._closed = weakref.WeakSet()

    def sample_reference(self, count: int = 1) -> None:
        """Time ``count`` runs of :func:`reference_chunk`."""
        for _ in range(count):
            t0 = clock()
            reference_chunk()
            d = clock() - t0
            self.reference_s.append(d)
            self.sampling_s += d
        self._next_ref = clock() + REF_EVERY_S

    def speed_scale(self, since: int = 0) -> float:
        """Factor taking host times to reference speed, from the
        reference samples taken since the ``since``-th."""
        return REF_NOMINAL_S / statistics.median(self.reference_s[since:])

    # -------------------------------------------------------------- install
    def install(self) -> None:
        from repro.core.perfcloud import PerfCloud
        from repro.experiments import figures
        from repro.experiments.harness import Testbed
        from repro.virt.cluster import Cluster

        self._patches.set(Cluster, "step", self._step_hook(Cluster.step))
        self._patches.set(figures, "build_testbed",
                          self._setup_hook(figures.build_testbed))
        self._patches.set(Testbed, "deploy_perfcloud",
                          self._setup_hook(Testbed.deploy_perfcloud))
        self._patches.set(PerfCloud, "close", self._close_hook(PerfCloud.close))

    def uninstall(self) -> None:
        self._patches.undo()

    def _step_hook(self, step):
        probe = self
        every = self.interval_steps

        def hooked(cluster, dt):
            n = cluster.steps
            if n % every == 0:
                now = clock()
                key = id(cluster)
                if n:
                    probe.intervals.append(now - probe._last.get(key, now))
                if probe.sampling and now >= probe._next_ref:
                    probe.sample_reference()
                    now = clock()
                probe._last[key] = now
            probe.vm_steps += len(cluster.vms)
            return step(cluster, dt)

        return hooked

    def _setup_hook(self, fn):
        probe = self

        def hooked(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.setup_s += clock() - t0

        return hooked

    def _close_hook(self, close):
        probe = self

        def hooked(pc):
            if pc not in probe._closed:
                probe._closed.add(pc)
                probe.deployments.append(describe_deployment(pc))
            return close(pc)

        return hooked


def describe_deployment(pc) -> dict:
    """What one PerfCloud deployment did, as plain data.

    ``actions`` are every actuation (time, vm, resource, normalised cap
    or None for a release); ``signals`` the per-app deviation series the
    detectors recorded; ``controls`` whether it ran with the paper's
    parameters (False for Fig. 9's monitor-only baselines); the counters
    feed the per-layer shares.
    """
    vms = pc.cloud.cluster.vms
    high = sorted(n for n, vm in vms.items() if vm.is_high_priority)
    signals = []
    deviating = evaluations = 0
    fast = slow = 0
    h_io, h_cpi = pc.config.h_io, pc.config.h_cpi
    agents = dict(pc.retired)
    agents.update(pc.node_managers)
    for host in sorted(agents):
        nm = agents[host]
        ident = nm.identifier
        fast += ident.fast_updates
        slow += ident.full_recomputes + ident.fallbacks
        for app in sorted(nm.detector.signals):
            sig = nm.detector.signals[app]
            io = sig["io"].values().tolist()
            cpi = sig["cpi"].values().tolist()
            evaluations += len(io)
            deviating += sum(1 for a, b in zip(io, cpi) if a > h_io or b > h_cpi)
            signals.append((host, app, io, cpi))
    return {
        "actions": [list(a) for a in pc.throttle_events()],
        "high": high,
        "low": sorted(n for n, vm in vms.items() if not vm.is_high_priority),
        "signals": signals,
        "controls": pc.config == type(pc.config)(),
        "evaluations": evaluations,
        "deviating": deviating,
        "identify_fast": fast,
        "identify_slow": slow,
    }


class Tracer:
    """Closed self-time accounting over :data:`TARGETS` for one pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Calls per wrapped target, keyed ``Owner.attr``.
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Inclusive durations of every NodeManager.control_interval.
        self.interval_s: List[float] = []
        #: (id, parent id, name, start, end) of every coarse span.
        self.spans: List[tuple] = []
        self._child = 0.0
        self._stack: List[int] = [0]
        self._patches = _Patches()

    def install(self) -> None:
        for module, path, key, span in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            name = path if "." in path else f"{module.rsplit('.', 1)[-1]}.{path}"
            samples = self.interval_s if path == "NodeManager.control_interval" else None
            wrapped = self.wrap(fn, key, name, span=span, samples=samples)
            if path == "Simulator.run":
                wrapped = self._count_engine(wrapped)
            self._patches.set(owner, attr, wrapped)
        # The control plane caches parallel.run_many in a module global
        # on its first tick; point that global at a wrapped copy.
        shards = importlib.import_module("repro.core.shards")
        found = _resolve("repro.experiments.parallel", "run_many")
        if found is not None and hasattr(shards, "_run_many"):
            self._patches.set(shards, "_run_many", self.wrap(
                getattr(*found), "experiments.run_many_self_s",
                "parallel.run_many"))

    def uninstall(self) -> None:
        self._patches.undo()

    def wrap(self, fn, key: str, name: str, *, span: bool = False,
             samples: Optional[list] = None):
        """``fn`` charging its self time to ``key`` (and a span if asked)."""
        tr = self
        self_s, calls = self.self_s, self.calls
        spans, stack = self.spans, self._stack

        if span:
            def wrapper(*args, **kwargs):
                sid = len(spans) + 1
                parent = stack[-1]
                stack.append(sid)
                spans.append(None)
                t0 = clock()
                outer = tr._child
                tr._child = 0.0
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    d = t1 - t0
                    self_s[key] += d - tr._child
                    calls[name] += 1
                    tr._child = outer + d
                    stack.pop()
                    spans[sid - 1] = (sid, parent, name, t0, t1)
        else:
            def wrapper(*args, **kwargs):
                t0 = clock()
                outer = tr._child
                tr._child = 0.0
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    self_s[key] += d - tr._child
                    calls[name] += 1
                    tr._child = outer + d
                    if samples is not None:
                        samples.append(d)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_engine(self, run):
        counts = self.counts

        def counted(sim, *args, **kwargs):
            e0, k0 = sim.events_fired, sim.ticks
            try:
                return run(sim, *args, **kwargs)
            finally:
                counts["sim.events"] += sim.events_fired - e0
                counts["sim.ticks"] += sim.ticks - k0

        return counted

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the pass's outermost span (benchmark code)."""
        return self.wrap(fn, "bench.self_s", "pass", span=True)(*args, **kwargs)

    def layer_metrics(self, deployments: List[dict]) -> Dict[str, float]:
        """Per-layer metrics of this pass (BENCHMARK.json ``per_layer``)."""
        out: Dict[str, float] = {}
        for _, _, key, _ in TARGETS:
            out[key] = self.self_s.get(key, 0.0)
        for key in ("bench.self_s", "experiments.run_many_self_s"):
            out[key] = self.self_s.get(key, 0.0)
        c = self.calls
        out["sim.events"] = self.counts.get("sim.events", 0)
        out["sim.ticks"] = self.counts.get("sim.ticks", 0)
        steps = c.get("PhysicalHost.step_table", 0)
        scalar = c.get("PhysicalHost.step_local", 0)
        idle = c.get("GuestTable.emit_idle_grants", 0)
        out["hardware.table_steps"] = steps - scalar
        out["hardware.scalar_steps"] = scalar
        out["hardware.scalar_step_share"] = scalar / steps if steps else 0.0
        out["hardware.idle_steps"] = idle
        out["hardware.idle_skip_share"] = idle / steps if steps else 0.0
        out["virt.actuations"] = (c.get("Domain.setSchedulerParameters", 0)
                                  + c.get("Domain.setBlockIoTune", 0))
        out["frameworks.heartbeats"] = c.get("FrameworkScheduler.heartbeat", 0)
        out["core.ticks"] = c.get("ShardedControlPlane.tick", 0)
        durations = self.interval_s
        out["core.intervals"] = len(durations)
        out["core.interval_s"] = sum(durations)
        out["core.interval_p50_us"] = percentile(durations, 50) * 1e6 if durations else 0.0
        out["core.interval_p99_us"] = percentile(durations, 99) * 1e6 if durations else 0.0
        fast = sum(d["identify_fast"] for d in deployments)
        slow = sum(d["identify_slow"] for d in deployments)
        evals = sum(d["evaluations"] for d in deployments)
        out["core.identify_fast_share"] = fast / (fast + slow) if fast + slow else 0.0
        out["core.deviating_share"] = (
            sum(d["deviating"] for d in deployments) / evals if evals else 0.0)
        out["core.actions"] = sum(len(d["actions"]) for d in deployments)
        out["metrics.ingest_calls"] = c.get("MetricPlane.ingest", 0)
        out["metrics.pearson_calls"] = c.get("identification.pearson_deviates", 0)
        out["experiments.run_many_calls"] = (c.get("figures.run_many", 0)
                                             + c.get("parallel.run_many", 0))
        return out

    def total_self_s(self) -> float:
        """Sum of every self-time accumulator (the accounted wall)."""
        return sum(self.self_s.values())

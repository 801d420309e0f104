"""Seedable fault injector wrapping the libvirt facade.

:class:`FaultInjector` decorates a :class:`~repro.virt.libvirt_api.Connection`
(and every :class:`~repro.virt.libvirt_api.Domain` handed out through it)
with fault behaviour drawn from named :mod:`repro.sim.rng` streams:

* transient ``LibvirtError`` on any stats or actuation call, plus
  persistent per-(vm, method) breakage;
* frozen (stale) counter snapshots and cumulative-counter resets — the
  two telemetry corruptions a guest reboot or a wedged stats path
  produces;
* latency spikes on actuation (the call returns, the cap lands late);
* scheduled VM crash/restart events: while down every call against the
  domain fails and the guest makes no progress; on restart the counters
  restart from zero and the cgroup caps are wiped.

Every injected fault is appended to :attr:`FaultInjector.trace`, so two
runs with the same root seed and the same :class:`FaultPlan` produce an
identical trace (`digest()` hashes it for cheap comparison).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.faults.spec import CrashEvent, FaultPlan
from repro.virt.libvirt_api import Connection, Domain, LibvirtError, per_domain_stats

__all__ = ["FaultInjector", "FaultyConnection", "FaultyDomain"]

#: Stats reads (counter sampling and cap read-backs).
SAMPLING_METHODS = frozenset({
    "blkioStats", "perfStats", "cpuStats", "blockIoTune", "schedulerParameters",
})
#: Actuation writes.
ACTUATION_METHODS = frozenset({"setBlockIoTune", "setSchedulerParameters"})


class FaultInjector:
    """Injects faults into one host's libvirt facade, reproducibly.

    Parameters
    ----------
    sim:
        The simulator; supplies time, scheduling and the seeded RNG
        registry (streams ``faults.calls``, ``faults.freeze``,
        ``faults.reset``).
    plan:
        What to inject, and how often.
    cluster:
        Needed only for crash/restart events (to pause and resume the
        guest's workload and wipe its caps on reboot); None disables the
        workload side of crashes.
    """

    def __init__(self, sim, plan: FaultPlan, cluster=None) -> None:
        self.sim = sim
        self.plan = plan
        self.cluster = cluster
        #: (time, kind, target, detail) tuples, in injection order.
        self.trace: List[Tuple[float, str, str, str]] = []
        self.counts: Counter = Counter()
        #: Runtime-broken (vm, method) pairs, on top of the plan's
        #: persistent failures; tests and scenarios flip these live.
        self._broken: set = set()
        self._down: Dict[str, float] = {}
        self._saved_drivers: Dict[str, object] = {}
        #: vm -> time of the latest counter reset.
        self._reset_at: Dict[str, float] = {}
        #: (vm, kind) -> (reset time the baseline covers, baseline counters).
        self._baselines: Dict[Tuple[str, str], Tuple[float, Dict[str, float]]] = {}
        #: (vm, kind) -> (frozen-until time, frozen snapshot).
        self._frozen: Dict[Tuple[str, str], Tuple[float, Dict[str, float]]] = {}
        for ev in plan.crashes:
            sim.schedule_at(ev.at_s, lambda e=ev: self._crash(e),
                            name=f"fault-crash-{ev.vm}")
        if plan.counter_reset_period_s is not None:
            sim.every(plan.counter_reset_period_s, self._periodic_reset,
                      name="fault-counter-reset")

    # ----------------------------------------------------------------- wrap
    def wrap(self, conn: Connection) -> "FaultyConnection":
        """Decorate a connection (and all domains it hands out)."""
        return FaultyConnection(self, conn)

    # ------------------------------------------------------------ breakage
    def break_call(self, vm: str, method: str) -> None:
        """Make (vm, method) fail on every call until :meth:`heal`."""
        self._broken.add((vm, method))

    def heal(self, vm: str, method: str) -> None:
        """Undo :meth:`break_call` (no-op if not broken)."""
        self._broken.discard((vm, method))

    # ------------------------------------------------------------- faulting
    def on_call(self, vm: str, method: str) -> None:
        """Raise ``LibvirtError`` if this call should fail."""
        if vm in self._down:
            self._record("down-call", vm, method)
            raise LibvirtError(f"domain {vm!r} is not running")
        for pair in ((vm, method), ("*", method), (vm, "*")):
            if pair in self._broken or pair in self.plan.persistent_failures:
                self._record("persistent-failure", vm, method)
                raise LibvirtError(f"injected persistent failure: {vm}.{method}")
        if not self.plan.targets(vm):
            return
        p = (self.plan.sampling_p if method in SAMPLING_METHODS
             else self.plan.actuation_p if method in ACTUATION_METHODS
             else self.plan.call_failure_p)
        if p > 0.0 and self._stream("calls").random() < p:
            self._record("call-failure", vm, method)
            raise LibvirtError(f"injected transient failure: {vm}.{method}")

    def on_connection_call(self, method: str) -> None:
        """Raise ``LibvirtError`` if a connection-level call should fail."""
        p = self.plan.connection_failure_p
        if p > 0.0 and self._stream("calls").random() < p:
            self._record("connection-failure", "conn", method)
            raise LibvirtError(f"injected connection failure: {method}")

    def transform_counters(
        self, vm: str, kind: str, raw: Dict[str, float], *, reset_draw: bool = False
    ) -> Dict[str, float]:
        """Apply reset baselines and freezes to one cumulative-counter read.

        ``reset_draw`` is set on the first stats read of a sampling pass
        (blkioStats) so the probabilistic per-pass reset is drawn once
        per VM, not once per counter group.
        """
        now = self.sim.now
        if (reset_draw and self.plan.counter_reset_p > 0.0 and self.plan.targets(vm)
                and self._stream("reset").random() < self.plan.counter_reset_p):
            self.mark_reset(vm)
        out = self._rebased(vm, kind, raw)
        key = (vm, kind)
        frozen = self._frozen.get(key)
        if frozen is not None:
            until, snapshot = frozen
            if now < until:
                self.counts["frozen-reads"] += 1
                return dict(snapshot)
            del self._frozen[key]
        if (self.plan.freeze_p > 0.0 and self.plan.targets(vm)
                and self._stream("freeze").random() < self.plan.freeze_p):
            self._frozen[key] = (now + self.plan.freeze_duration_s, dict(out))
            self._record("freeze", vm, f"{kind} for {self.plan.freeze_duration_s:g}s")
        return out

    def actuation_delay(self, vm: str, method: str) -> Optional[float]:
        """Latency spike for one actuation call, or None for none."""
        if (self.plan.latency_p > 0.0 and self.plan.targets(vm)
                and self._stream("calls").random() < self.plan.latency_p):
            self._record("latency", vm, f"{method} +{self.plan.latency_s:g}s")
            return self.plan.latency_s
        return None

    def mark_reset(self, vm: str) -> None:
        """Reset ``vm``'s cumulative counters (as observed downstream)."""
        self._reset_at[vm] = self.sim.now
        self._record("counter-reset", vm, "")

    def is_down(self, vm: str) -> bool:
        """Whether ``vm`` is currently crashed."""
        return vm in self._down

    # ------------------------------------------------------------ determinism
    def digest(self) -> str:
        """Stable hash of the injected-fault trace."""
        h = hashlib.sha256()
        for t, kind, target, detail in self.trace:
            h.update(f"{t:.6f}|{kind}|{target}|{detail}\n".encode())
        return h.hexdigest()

    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault totals by kind (deterministically ordered)."""
        return {k: self.counts[k] for k in sorted(self.counts)}

    # -------------------------------------------------------------- internals
    def _stream(self, name: str):
        return self.sim.rng.stream(f"faults.{name}")

    def _record(self, kind: str, target: str, detail: str) -> None:
        self.trace.append((self.sim.now, kind, target, detail))
        self.counts[kind] += 1

    def _rebased(self, vm: str, kind: str, raw: Dict[str, float]) -> Dict[str, float]:
        reset_time = self._reset_at.get(vm)
        if reset_time is None:
            return raw
        key = (vm, kind)
        base = self._baselines.get(key)
        if base is None or base[0] < reset_time:
            self._baselines[key] = (reset_time, dict(raw))
            base = self._baselines[key]
        baseline = base[1]
        return {k: max(0.0, v - baseline.get(k, 0.0)) for k, v in raw.items()}

    def _periodic_reset(self) -> None:
        for vm in self._reset_targets():
            self.mark_reset(vm)

    def _reset_targets(self) -> List[str]:
        if self.plan.vms is not None:
            return sorted(self.plan.vms)
        if self.cluster is not None:
            return sorted(self.cluster.vms)
        return sorted({vm for vm, _ in self._baselines} | set(self._reset_at))

    def _crash(self, ev: CrashEvent) -> None:
        if ev.vm in self._down:
            return
        self._down[ev.vm] = self.sim.now
        self._record("crash", ev.vm, f"restart in {ev.restart_after_s:g}s")
        if self.cluster is not None:
            guest = self.cluster.vms.get(ev.vm)
            if guest is not None and guest.driver is not None:
                self._saved_drivers[ev.vm] = guest.driver
                guest.clear_workload()
        self.sim.schedule(ev.restart_after_s, lambda: self._restart(ev.vm),
                          name=f"fault-restart-{ev.vm}")

    def _restart(self, vm: str) -> None:
        self._down.pop(vm, None)
        self.mark_reset(vm)  # reboot: cumulative counters restart at zero
        self._record("restart", vm, "")
        if self.cluster is not None:
            guest = self.cluster.vms.get(vm)
            if guest is not None:
                # A rebooted domain comes back uncapped; the control plane
                # must notice the drift and re-assert its caps.
                guest.cgroup.throttle.iops_cap = None
                guest.cgroup.throttle.bps_cap = None
                guest.cgroup.cpu.quota_cores = None
                driver = self._saved_drivers.pop(vm, None)
                if driver is not None:
                    guest.attach_workload(driver)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(plan=[{self.plan.describe()}], "
                f"injected={sum(self.counts.values())})")


class FaultyDomain:
    """Fault-decorated :class:`~repro.virt.libvirt_api.Domain`."""

    def __init__(self, injector: FaultInjector, dom: Domain) -> None:
        self._inj = injector
        self._dom = dom

    # Identity reads never fault — even a crashed domain keeps its name.
    def name(self) -> str:
        return self._dom.name()

    def vcpus(self) -> int:
        return self._dom.vcpus()

    # ------------------------------------------------------------------ stats
    def blkioStats(self) -> Dict[str, float]:
        vm = self._dom.name()
        self._inj.on_call(vm, "blkioStats")
        return self._inj.transform_counters(
            vm, "blkio", self._dom.blkioStats(), reset_draw=True
        )

    def perfStats(self) -> Dict[str, float]:
        vm = self._dom.name()
        self._inj.on_call(vm, "perfStats")
        return self._inj.transform_counters(vm, "perf", self._dom.perfStats())

    def cpuStats(self) -> Dict[str, float]:
        vm = self._dom.name()
        self._inj.on_call(vm, "cpuStats")
        return self._inj.transform_counters(vm, "cpu", self._dom.cpuStats())

    def blockIoTune(self, device: str = "vda") -> Dict[str, float]:
        self._inj.on_call(self._dom.name(), "blockIoTune")
        return self._dom.blockIoTune(device)

    def schedulerParameters(self) -> Dict[str, int]:
        self._inj.on_call(self._dom.name(), "schedulerParameters")
        return self._dom.schedulerParameters()

    # -------------------------------------------------------------- actuation
    def setBlockIoTune(self, device: str, params: Dict[str, float]) -> None:
        vm = self._dom.name()
        self._inj.on_call(vm, "setBlockIoTune")
        delay = self._inj.actuation_delay(vm, "setBlockIoTune")
        if delay is None:
            self._dom.setBlockIoTune(device, params)
        else:
            self._defer(delay, lambda: self._dom.setBlockIoTune(device, dict(params)))

    def setSchedulerParameters(self, params: Dict[str, int]) -> None:
        vm = self._dom.name()
        self._inj.on_call(vm, "setSchedulerParameters")
        delay = self._inj.actuation_delay(vm, "setSchedulerParameters")
        if delay is None:
            self._dom.setSchedulerParameters(params)
        else:
            self._defer(delay, lambda: self._dom.setSchedulerParameters(dict(params)))

    def _defer(self, delay: float, apply) -> None:
        def late() -> None:
            try:
                apply()
            except Exception:
                # The domain vanished while the cap was in flight.
                self._inj._record("latency-apply-dropped", self._dom.name(), "")

        self._inj.sim.schedule(delay, late, name="fault-late-actuation")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyDomain({self._dom.name()!r})"


class FaultyConnection:
    """Fault-decorated :class:`~repro.virt.libvirt_api.Connection`."""

    def __init__(self, injector: FaultInjector, conn: Connection) -> None:
        self._inj = injector
        self._conn = conn

    def hostname(self) -> str:
        return self._conn.hostname()

    def listAllDomains(self) -> List[FaultyDomain]:
        self._inj.on_connection_call("listAllDomains")
        return [FaultyDomain(self._inj, d) for d in self._conn.listAllDomains()]

    def lookupByName(self, name: str) -> FaultyDomain:
        return FaultyDomain(self._inj, self._conn.lookupByName(name))

    def getAllDomainStats(self) -> List[Tuple[FaultyDomain, Dict[str, float]]]:
        # Per-domain reads, so each one draws its own faults in order.
        return per_domain_stats(self.listAllDomains())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyConnection({self._conn!r})"

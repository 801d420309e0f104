"""Node manager: Algorithm 1 — the per-host PerfCloud agent.

Every control interval the node manager:

1. fetches the host's VM inventory from the cloud manager (priorities and
   application grouping — so it survives arrivals, deletions and
   migrations), re-running the query only when the host's placement
   version says the answer changed;
2. samples system-level metrics for every VM through libvirt;
3. computes the iowait-ratio and CPI deviations across each high-priority
   application's VMs and compares them to the thresholds;
4. identifies antagonists among the low-priority VMs by online Pearson
   correlation (I/O throughput against the I/O signal, LLC miss rate
   against the CPI signal);
5. runs the CUBIC controller per (antagonist, resource) and actuates the
   resulting caps through libvirt — ``setBlockIoTune`` for disk,
   ``setSchedulerParameters``/``vcpu_quota`` for CPU.

If several high-priority applications share the host, it reports the
conflict to the cloud manager (the paper's migration hook, §IV-D2).

The agent is hardened for long-running operation against a degraded
libvirt: a failing actuation is retried on a bounded exponential backoff
without losing controller state or skipping other antagonists, every
interval ends with a desired-vs-applied reconciliation pass that
re-asserts caps which drifted or never landed (e.g. after a guest
reboot wiped them), cap state for departed VMs is retired, and no
``LibvirtError`` ever kills the periodic control task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.config import PerfCloudConfig
from repro.core.cubic import CapState, CubicController
from repro.core.detector import InterferenceDetector
from repro.core.identification import AntagonistIdentifier
from repro.core.monitor import PerformanceMonitor, VmSample
from repro.core.verdict import ComputeTicket, ControlVerdict, compute_verdict
from repro.metrics.timeseries import TimeSeries
from repro.resilience.breaker import GuardedConnection
from repro.resilience.ladder import (
    FULL,
    MONITOR,
    STATIC_CAP,
    DegradationLadder,
    ResiliencePolicy,
    ResilienceStats,
)
from repro.sim.engine import Simulator
from repro.virt.libvirt_api import VCPU_PERIOD_US, Connection, Domain, LibvirtError

__all__ = ["ControlPlaneStats", "IntervalContext", "NodeManager"]


@dataclass
class ControlPlaneStats:
    """Per-agent survival counters (all zero on a healthy facade)."""

    #: Control intervals that ran to completion.
    intervals_completed: int = 0
    #: Control intervals aborted by an unhandled facade error.
    intervals_aborted: int = 0
    #: Actuation calls that raised (each then retried on backoff).
    actuation_errors: int = 0
    #: Retry attempts executed after a failed actuation.
    actuations_retried: int = 0
    #: Actuations abandoned after exhausting every retry.
    actuations_failed: int = 0
    #: Caps re-asserted by the reconciliation pass.
    caps_reconciled: int = 0
    #: Controller states retired because their VM left the host.
    caps_retired: int = 0
    #: Static fallback caps asserted while degraded (ladder only).
    static_caps_applied: int = 0
    #: Static fallback caps cleared (contention gone or mode recovered).
    static_caps_released: int = 0
    #: Intervals spent on the monitoring-only rung.
    monitor_intervals: int = 0
    #: CUBIC controller states abandoned on degradation.
    cubic_states_dropped: int = 0


@dataclass
class IntervalContext:
    """What one interval's ``_begin`` hands on to ``_complete``."""

    now: float
    mode: str
    samples: Dict[str, VmSample]
    ticket: ComputeTicket


class NodeManager:
    """One decentralized PerfCloud agent, bound to one physical server."""

    def __init__(
        self,
        sim: Simulator,
        host_name: str,
        cloud,
        config: Optional[PerfCloudConfig] = None,
        *,
        autostart: bool = True,
        controller=None,
        fault_injector=None,
        scheduler=None,
        resilience: Optional[ResiliencePolicy] = None,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.host_name = host_name
        self.cloud = cloud
        self.config = config or PerfCloudConfig()
        self.conn: Connection = cloud.connection(host_name)
        if fault_injector is not None:
            self.conn = fault_injector.wrap(self.conn)
        #: Optional degradation ladder; its circuit breaker wraps the
        #: facade *outside* the fault injector — the injector models the
        #: world misbehaving, the breaker is this agent's reaction to it.
        self.resilience_policy = resilience
        self.ladder: Optional[DegradationLadder] = None
        if resilience is not None:
            self.ladder = DegradationLadder(host_name, resilience)
            self.conn = GuardedConnection(
                self.conn, self.ladder.breaker, lambda: self.sim.now
            )
        self._mode = FULL
        #: Static fallback caps by (vm_name, resource): absolute cap, or
        #: ``None`` once marked for release (cleared by reconciliation).
        self.static_caps: Dict[Tuple[str, str], Optional[float]] = {}
        self.monitor = PerformanceMonitor(self.conn, self.config)
        self.detector = InterferenceDetector(self.config)
        self.identifier = AntagonistIdentifier(self.config)
        #: Cap-control law; Eq. 1 CUBIC unless an alternative is injected
        #: (the ad-hoc ablation of §III-C uses AdHocController here).
        self.controller = controller or CubicController(self.config)
        #: Controller state per (vm_name, resource) with resource in
        #: {"io", "cpu"}.
        self.cap_states: Dict[Tuple[str, str], CapState] = {}
        #: Applied-cap history for Fig. 10: (vm, resource) -> TimeSeries of
        #: normalized caps (1.0 = pre-throttle usage; NaN-free).
        self.cap_history: Dict[Tuple[str, str], TimeSeries] = {}
        #: (time, vm, resource, normalized_cap) actuation events.
        self.actions: List[tuple] = []
        self.stats = ControlPlaneStats()
        #: Optional :class:`~repro.obs.telemetry.Telemetry` — incident
        #: ledger + span recorder.  Every hook below is guarded on it,
        #: so ``None`` (the default) leaves the hot path untouched.
        self.telemetry = telemetry
        #: Optional :class:`~repro.core.shards.ShardedControlPlane`; when
        #: set, this agent is stepped as a shard of the coordinator task
        #: instead of owning its own periodic event.
        self._scheduler = scheduler
        self._task = None
        #: Inventory of this host as of ``_inventory_version`` (the cloud's
        #: placement version): app → member names in query order, the
        #: low-priority names, and every name present.
        self._inventory_version: Optional[int] = None
        self._app_members: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
        self._low: Tuple[str, ...] = ()
        self._present: FrozenSet[str] = frozenset()
        if autostart:
            self.start()

    # ----------------------------------------------------------------- loop
    def start(self) -> None:
        """Begin (or resume) the periodic control loop."""
        if self._scheduler is not None:
            self._scheduler.attach(self)
            return
        if self._task is None or self._task.stopped:
            self._task = self.sim.every(
                self.config.interval_s,
                self.control_interval,
                name=f"node-manager-{self.host_name}",
            )

    def stop(self) -> None:
        """Halt the control loop (existing caps stay as they are)."""
        if self._scheduler is not None:
            self._scheduler.detach(self)
            return
        if self._task is not None:
            self._task.stop()

    @property
    def running(self) -> bool:
        """Whether this agent's control loop is currently scheduled."""
        if self._scheduler is not None:
            return self._scheduler.attached(self)
        return self._task is not None and not self._task.stopped

    def control_interval(self) -> None:
        """One pass of Algorithm 1; a degraded facade never kills the task.

        Three steps: ``_begin`` samples and snapshots the inventory,
        :func:`~repro.core.verdict.compute_verdict` runs detection and
        identification, and ``_complete`` actuates and accounts.
        """
        try:
            ctx = self._begin()
            if ctx is not None:
                verdict = compute_verdict(
                    self.detector, self.identifier, self.monitor.plane,
                    ctx.ticket, ctx.samples, self.monitor.history, self.config,
                )
                self._complete(ctx, verdict)
        except LibvirtError:
            # Every libvirt call inside the interval is individually
            # guarded; this is the last line of defence keeping the
            # periodic task alive under an unexpectedly failing facade.
            self.stats.intervals_aborted += 1
            return
        self.stats.intervals_completed += 1

    def _begin(self) -> Optional[IntervalContext]:
        now = self.sim.now
        mode = self._update_mode(now)
        self._refresh_inventory()

        tel = self.telemetry
        spans = tel.spans if tel is not None else None
        if spans is not None:
            t0 = time.perf_counter()
            samples = self.monitor.sample(now)
            spans.record("monitor.sample", self.host_name, now,
                         time.perf_counter() - t0)
        else:
            samples = self.monitor.sample(now)
        self._retire_departed(self._present)
        if mode == MONITOR:
            # Lowest rung: keep observing (best-effort — the breaker may
            # refuse even sampling), take no control action at all.
            self.stats.monitor_intervals += 1
            return None

        app_members = self._app_members
        if len(app_members) > 1:
            self.cloud.report_conflict(
                self.host_name, sorted(app for app, _ in app_members), now
            )
        if not app_members:
            self._finish_interval(now, mode)
            return None

        history = self.monitor.history
        low = self._low
        ticket = ComputeTicket(
            now=now,
            app_members=app_members,
            suspects=tuple(name for name in low if name in history),
            do_identify=bool(low),
            trace=spans is not None,
        )
        return IntervalContext(now=now, mode=mode, samples=samples, ticket=ticket)

    def _refresh_inventory(self) -> None:
        """Re-run the cloud's inventory query if this host's placement
        changed since the last one.

        Exact: the query's answer depends only on which VMs sit on the
        host, in boot order, and on their priority and application,
        which are fixed at boot — all covered by the placement version.
        """
        version = self.cloud.placement_version(self.host_name)
        if version == self._inventory_version:
            return
        instances = self.cloud.instances_on_host(self.host_name)
        app_members: Dict[str, List[str]] = {}
        for info in instances:
            if info.is_high_priority and info.app_id:
                app_members.setdefault(info.app_id, []).append(info.name)
        self._app_members = tuple(
            (app, tuple(members)) for app, members in app_members.items()
        )
        self._low = tuple(i.name for i in instances if not i.is_high_priority)
        self._present = frozenset(i.name for i in instances)
        self._inventory_version = version

    def _complete(self, ctx: IntervalContext, verdict: ControlVerdict) -> None:
        now, mode = ctx.now, ctx.mode
        tel = self.telemetry
        spans = tel.spans if tel is not None else None
        if spans is not None:
            # Spans compute_verdict measured and carried on the verdict.
            for kind, dur in verdict.spans:
                spans.record(kind, self.host_name, now, dur)
        if not verdict.do_identify:
            # Nothing to identify or throttle; detection history still
            # accumulates (the paper's "running alone" baselines).
            self._finish_interval(now, mode)
            if tel is not None and tel.ledger is not None:
                tel.ledger.observe(self, now, verdict)
            return

        io_contention = any(
            s > self.config.h_io for _, s, _ in verdict.detections
        )
        cpu_contention = any(
            s > self.config.h_cpi for _, _, s in verdict.detections
        )

        t0 = time.perf_counter() if spans is not None else 0.0
        io_antagonists: Set[str] = set()
        cpu_antagonists: Set[str] = set()
        for ident in verdict.identifications:
            if ident.resource == "io":
                io_antagonists |= ident.antagonists
            else:
                cpu_antagonists |= ident.antagonists
        if spans is not None:
            t1 = time.perf_counter()
            spans.record("identifier.judge", self.host_name, now, t1 - t0)
        else:
            t1 = 0.0

        samples = ctx.samples
        if mode == STATIC_CAP:
            # Degraded rung: detection and identification still run, but
            # antagonists get the paper's static fallback cap instead of
            # a CUBIC trajectory (nothing to mis-evolve while actuations
            # are unreliable).
            self._static_control("io", io_antagonists, io_contention,
                                 samples, now)
            self._static_control("cpu", cpu_antagonists, cpu_contention,
                                 samples, now)
        else:
            self._control("io", io_antagonists, io_contention, samples, now)
            self._control("cpu", cpu_antagonists, cpu_contention, samples, now)
        self._finish_interval(now, mode)
        if spans is not None:
            spans.record("actuation", self.host_name, now,
                         time.perf_counter() - t1)
        if tel is not None and tel.ledger is not None:
            tel.ledger.observe(self, now, verdict)

    def _finish_interval(self, now: float, mode: str = FULL) -> None:
        if mode == STATIC_CAP:
            self._reconcile_static(now)
            return
        self._reconcile_caps(now)
        if self.static_caps:
            # Leftovers from a degraded episode: clear them now that the
            # channel is healthy again.
            for key in self.static_caps:
                self.static_caps[key] = None
            self._reconcile_static(now)
        self._record_cap_history(now)

    def survival_summary(self) -> Dict[str, int]:
        """Merged control-plane and monitor survival counters."""
        m = self.monitor.stats
        return {
            "intervals_completed": self.stats.intervals_completed,
            "intervals_aborted": self.stats.intervals_aborted,
            "list_failures": m.list_failures,
            "samples_dropped": m.samples_dropped,
            "counter_resets": m.counter_resets,
            "histories_purged": m.histories_purged,
            "samples_pruned": m.samples_pruned,
            "actuation_errors": self.stats.actuation_errors,
            "actuations_retried": self.stats.actuations_retried,
            "actuations_failed": self.stats.actuations_failed,
            "caps_reconciled": self.stats.caps_reconciled,
            "caps_retired": self.stats.caps_retired,
        }

    def resilience_summary(self) -> Optional[ResilienceStats]:
        """Ladder + breaker posture, or ``None`` when resilience is off."""
        if self.ladder is None:
            return None
        active = sum(1 for cap in self.static_caps.values() if cap is not None)
        return self.ladder.stats(static_caps_active=active)

    # --------------------------------------------------------------- ladder
    def _update_mode(self, now: float) -> str:
        if self.ladder is None:
            return FULL
        mode = self.ladder.update(now)
        if mode != self._mode:
            self._on_mode_change(self._mode, mode, now)
            self._mode = mode
        return mode

    def _on_mode_change(self, old: str, new: str, now: float) -> None:
        if old == FULL:
            # Degrading: abandon CUBIC state (its trajectory is
            # meaningless against unreliable actuation) but inherit the
            # currently-applied caps as the static posture, so already-
            # throttled antagonists stay throttled.
            for (vm, resource), state in self.cap_states.items():
                if not state.released:
                    self.static_caps.setdefault(
                        (vm, resource), state.absolute_cap
                    )
            self.stats.cubic_states_dropped += len(self.cap_states)
            self.cap_states.clear()
        if new == FULL:
            # Recovered: mark every static cap for release; the healthy
            # channel clears them in this interval's reconciliation and
            # CUBIC restarts fresh episodes where contention persists.
            for key in self.static_caps:
                self.static_caps[key] = None

    def _static_control(
        self,
        resource: str,
        antagonists: Set[str],
        contention: bool,
        samples: Dict[str, VmSample],
        now: float,
    ) -> None:
        """Static fallback: one-shot cap at ``static_cap_fraction`` of usage."""
        fraction = self.resilience_policy.static_cap_fraction
        if not contention:
            for key, cap in self.static_caps.items():
                if key[1] == resource and cap is not None:
                    self.static_caps[key] = None  # release via reconcile
            return
        for vm_name in sorted(antagonists):
            key = (vm_name, resource)
            if self.static_caps.get(key) is not None:
                continue
            usage = self._observed_usage(vm_name, resource, samples)
            if usage is None or usage <= 0:
                continue
            cap = usage * fraction
            self.static_caps[key] = cap
            self.stats.static_caps_applied += 1
            try:
                dom = self.conn.lookupByName(vm_name)
                self._apply_cap(dom, resource, cap)
            except LibvirtError:
                continue  # reconciliation retries next interval
            self.actions.append((now, vm_name, resource, fraction))

    def _reconcile_static(self, now: float) -> None:
        """Converge applied caps onto the static posture, best-effort.

        Entries marked ``None`` are pending release and are dropped once
        the clear actually lands — never before, so a cap can't be
        orphaned on a VM by a failed release.
        """
        for key, cap in list(self.static_caps.items()):
            vm_name, resource = key
            try:
                dom = self.conn.lookupByName(vm_name)
                if cap is None:
                    self._apply_cap(dom, resource, None)
                    del self.static_caps[key]
                    self.stats.static_caps_released += 1
                    self.actions.append((now, vm_name, resource, None))
                elif not self._cap_matches(dom, resource, cap):
                    self._apply_cap(dom, resource, cap)
                    self.stats.caps_reconciled += 1
            except LibvirtError:
                continue  # channel still degraded; keep the entry

    # ------------------------------------------------------------- internals
    def _control(
        self,
        resource: str,
        antagonists: Set[str],
        contention: bool,
        samples: Dict[str, VmSample],
        now: float,
    ) -> None:
        # Every existing cap keeps evolving (cubic recovery must continue
        # even after a VM ages out of the antagonist set), while *new* caps
        # are only created for identified antagonists at a moment of actual
        # contention — Eq. 1 starts from a multiplicative decrease of the
        # observed usage.
        tracked = {vm for (vm, r) in self.cap_states if r == resource}
        for vm_name in sorted(antagonists | tracked):
            key = (vm_name, resource)
            state = self.cap_states.get(key)
            is_antagonist = vm_name in antagonists
            if state is None:
                if not (contention and is_antagonist):
                    continue
                usage = self._observed_usage(vm_name, resource, samples)
                if usage is None or usage <= 0:
                    continue
                state = self.controller.start(usage)
                self.cap_states[key] = state
            was_released = state.released
            self.controller.update(state, contention and is_antagonist)
            self._actuate(vm_name, resource, state, was_released, now)
            if state.released and not is_antagonist:
                # Fully recovered and no longer implicated: retire the
                # controller state (a fresh episode restarts from the
                # then-observed usage).
                del self.cap_states[key]

    def _observed_usage(
        self, vm_name: str, resource: str, samples: Dict[str, VmSample]
    ) -> Optional[float]:
        s = samples.get(vm_name)
        if s is None:
            return None
        if resource == "io":
            return s.io_bytes_ps
        return s.cpu_usage_cores

    def _actuate(
        self,
        vm_name: str,
        resource: str,
        state: CapState,
        was_released: bool,
        now: float,
    ) -> None:
        try:
            dom = self.conn.lookupByName(vm_name)
        except LibvirtError:
            return  # VM left the host between sampling and actuation
        if state.released:
            if not was_released:
                if self._try_apply(dom, vm_name, resource, None):
                    self.actions.append((now, vm_name, resource, None))
            return
        if self._try_apply(dom, vm_name, resource, state.absolute_cap):
            self.actions.append((now, vm_name, resource, state.cap))

    def _try_apply(
        self, dom: Domain, vm_name: str, resource: str, cap: Optional[float]
    ) -> bool:
        """Apply ``cap`` (None clears), scheduling backoff retries on failure.

        Returns whether the cap landed now.  A failure never propagates:
        the controller state is untouched and the remaining antagonists
        of this interval still get actuated; retries re-apply whatever
        the *current* desired cap is when they fire, and the next
        interval's reconciliation pass covers anything still drifted.
        """
        try:
            self._apply_cap(dom, resource, cap)
            return True
        except LibvirtError:
            self.stats.actuation_errors += 1
            self._schedule_retry(vm_name, resource, attempt=1)
            return False

    def _apply_cap(self, dom: Domain, resource: str, cap: Optional[float]) -> None:
        if resource == "io":
            dom.setBlockIoTune("vda", {"total_bytes_sec": cap or 0})
        elif cap is None:
            dom.setSchedulerParameters({"vcpu_quota": -1})
        else:
            dom.setSchedulerParameters(
                {"vcpu_quota": self._quota_for(dom, cap),
                 "vcpu_period": VCPU_PERIOD_US}
            )

    def _quota_for(self, dom: Domain, cap: float) -> int:
        cores = max(cap, dom.vcpus() * 0.01)
        return max(1000, int(round(cores / dom.vcpus() * VCPU_PERIOD_US)))

    def _schedule_retry(self, vm_name: str, resource: str, attempt: int) -> None:
        if attempt > self.config.actuation_retries:
            self.stats.actuations_failed += 1
            return
        delay = self.config.actuation_backoff_s * (2 ** (attempt - 1))
        self.sim.schedule(
            delay,
            lambda: self._retry_actuation(vm_name, resource, attempt),
            name=f"actuate-retry-{vm_name}-{resource}",
        )

    def _retry_actuation(self, vm_name: str, resource: str, attempt: int) -> None:
        state = self.cap_states.get((vm_name, resource))
        desired = None if state is None or state.released else state.absolute_cap
        self.stats.actuations_retried += 1
        try:
            dom = self.conn.lookupByName(vm_name)
            self._apply_cap(dom, resource, desired)
        except LibvirtError:
            self._schedule_retry(vm_name, resource, attempt + 1)
            return
        self.actions.append(
            (self.sim.now, vm_name, resource,
             state.cap if desired is not None else None)
        )

    def _reconcile_caps(self, now: float) -> None:
        """Re-assert every desired cap whose applied value drifted.

        Actuations can fail past their retries, land late, or be wiped
        wholesale by a guest reboot; comparing the controller's desired
        cap against what libvirt reports and re-applying the difference
        makes the applied state converge regardless of which write was
        lost.  On a healthy facade every comparison matches and this
        pass is a read-only no-op.
        """
        for (vm_name, resource), state in self.cap_states.items():
            desired = None if state.released else state.absolute_cap
            try:
                dom = self.conn.lookupByName(vm_name)
                if self._cap_matches(dom, resource, desired):
                    continue
                self._apply_cap(dom, resource, desired)
            except LibvirtError:
                # Unreadable or unwritable right now; next interval retries.
                continue
            self.stats.caps_reconciled += 1
            self.actions.append(
                (now, vm_name, resource,
                 state.cap if desired is not None else None)
            )

    def _cap_matches(
        self, dom: Domain, resource: str, desired: Optional[float]
    ) -> bool:
        if resource == "io":
            applied = dom.blockIoTune("vda")["total_bytes_sec"]
            if desired is None:
                return applied == 0.0
            return abs(applied - desired) <= 1e-9 * max(1.0, abs(desired))
        quota = dom.schedulerParameters()["vcpu_quota"]
        if desired is None:
            return quota == -1
        return quota == self._quota_for(dom, desired)

    def _retire_departed(self, present: FrozenSet[str]) -> None:
        """Drop controller and identification state for VMs no longer on
        this host.

        A departed antagonist's TTL must not outlive it: a VM booted
        later under the same name would otherwise be judged an
        antagonist from the TTL alone.
        """
        for vm in self.identifier.remembered() - present:
            self.identifier.forget(vm)
        for key in [k for k in self.cap_states if k[0] not in present]:
            del self.cap_states[key]
            self.stats.caps_retired += 1
        for key in [k for k in self.static_caps if k[0] not in present]:
            del self.static_caps[key]
            self.stats.caps_retired += 1

    def _record_cap_history(self, now: float) -> None:
        for key, state in self.cap_states.items():
            ts = self.cap_history.setdefault(
                key, TimeSeries(name=f"{key[0]}.{key[1]}.cap")
            )
            ts.append(now, state.cap if not state.released else float("nan"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeManager(host={self.host_name!r}, caps={len(self.cap_states)})"

"""Prometheus-style text exposition of every counter surface.

:func:`snapshot` walks a deployed :class:`~repro.core.perfcloud.PerfCloud`
(plus optional supervisor stats, result cache and telemetry) and returns
metric *families* — ``{name: {"type", "help", "samples"}}`` with samples
as ``(labels, value)`` pairs.  :func:`render_text` serializes them in
the Prometheus text format (``# HELP`` / ``# TYPE`` then one sample per
line), deterministically: families sort by name, samples by label
values, floats render via ``repr`` — so two identical runs produce
byte-identical expositions and a golden file can pin the format.

:func:`parse_exposition` is the minimal inverse used by the unit tests
and the CI smoke job; it is not a general Prometheus parser.

Surfaces covered: MetricPlane series (latest value per VM × metric and
drop counters), MonitorStats, ControlPlaneStats, per-host identifier
fast/full/fallback/flat-skip counters, breaker state + counts, ladder
mode + degradations/recoveries, the coordinator tick counter, the data
plane's row and host-step counters, incident ledger and span recorder
totals, result-cache hits/misses and SupervisorStats.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["snapshot", "render_text", "parse_exposition"]

Labels = Tuple[Tuple[str, str], ...]
Family = Dict[str, object]

_LINE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$'
)
_LABEL_RE = re.compile(
    r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:\\.|[^"\\])*)"'
)


def _fam(families: Dict[str, Family], name: str, mtype: str,
         help_text: str) -> List[Tuple[Labels, float]]:
    fam = families.setdefault(
        name, {"type": mtype, "help": help_text, "samples": []}
    )
    return fam["samples"]  # type: ignore[return-value]


def _add(samples: List[Tuple[Labels, float]], labels: Dict[str, str],
         value: float) -> None:
    samples.append((tuple(sorted(labels.items())), float(value)))


def _counter_fields(families: Dict[str, Family], prefix: str, stats,
                    labels: Dict[str, str], help_fmt: str) -> None:
    """One ``<prefix>_<field>_total`` family per dataclass counter field."""
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            continue
        _add(
            _fam(families, f"{prefix}_{field.name}_total", "counter",
                 help_fmt.format(field=field.name)),
            labels, value,
        )


# ------------------------------------------------------------------ snapshot
def snapshot(
    perfcloud=None,
    *,
    supervisor=None,
    cache=None,
    telemetry=None,
) -> Dict[str, Family]:
    """Collect metric families from every available counter surface."""
    families: Dict[str, Family] = {}
    if perfcloud is not None:
        if telemetry is None:
            telemetry = perfcloud.telemetry
        for host in sorted(perfcloud.node_managers):
            _snapshot_host(families, host, perfcloud.node_managers[host])
        for host in sorted(perfcloud.retired):
            _snapshot_host(families, host, perfcloud.retired[host],
                           retired=True)
        _snapshot_control_plane(families, perfcloud.control_plane)
        _counter_fields(families, "repro_dataplane",
                        perfcloud.cloud.cluster.table.stats, {},
                        "Data-plane {field} count.")
    if telemetry is not None:
        _snapshot_telemetry(families, telemetry)
    if cache is not None:
        _add(_fam(families, "repro_cache_hits_total", "counter",
                  "Result-cache hits."), {}, cache.hits)
        _add(_fam(families, "repro_cache_misses_total", "counter",
                  "Result-cache misses."), {}, cache.misses)
    if supervisor is not None:
        stats = supervisor.to_dict() if hasattr(supervisor, "to_dict") else supervisor
        for key in sorted(stats):
            _add(_fam(families, f"repro_supervisor_{key}_total", "counter",
                      f"Supervised-execution {key} count."),
                 {}, int(stats[key]))
    return families


def _snapshot_host(families: Dict[str, Family], host: str, nm,
                   *, retired: bool = False) -> None:
    labels = {"host": host}
    if retired:
        labels["retired"] = "1"
    _counter_fields(families, "repro_control", nm.stats, labels,
                    "Node-manager {field} count.")
    _counter_fields(families, "repro_monitor", nm.monitor.stats, labels,
                    "Performance-monitor {field} count.")
    ident = nm.identifier
    for name, value in (("fast_updates", ident.fast_updates),
                        ("full_recomputes", ident.full_recomputes),
                        ("fallbacks", ident.fallbacks),
                        ("flat_skips", ident.flat_skips)):
        _add(_fam(families, f"repro_identifier_{name}_total", "counter",
                  f"Incremental-Pearson {name} count."), labels, value)
    _add(_fam(families, "repro_actuations_total", "counter",
              "Throttle/release actuation events issued."),
         labels, len(nm.actions))
    _add(_fam(families, "repro_caps_active", "gauge",
              "CUBIC cap states currently tracked."),
         labels, len(nm.cap_states))
    _snapshot_plane(families, labels, nm.monitor.plane)
    _snapshot_resilience(families, labels, nm)


def _snapshot_plane(families: Dict[str, Family], labels: Dict[str, str],
                    plane) -> None:
    _add(_fam(families, "repro_plane_dropped_total", "counter",
              "Metric-plane cells dropped (eviction, pruning, removal)."),
         labels, plane.dropped_total)
    vms = plane.vms()
    _add(_fam(families, "repro_plane_vms", "gauge",
              "VMs currently registered in the metric plane."),
         labels, len(vms))
    last = plane.last_time
    if last is not None:
        _add(_fam(families, "repro_plane_last_time_seconds", "gauge",
                  "Newest sample time in the metric plane."), labels, last)
    latest = _fam(families, "repro_plane_metric_latest", "gauge",
                  "Latest ingested value per (vm, metric) series.")
    from repro.core.monitor import PLANE_METRICS

    for metric in PLANE_METRICS:
        for vm, value in sorted(plane.latest(metric, vms).items()):
            _add(latest, {**labels, "vm": vm, "metric": metric}, value)


def _snapshot_resilience(families: Dict[str, Family],
                         labels: Dict[str, str], nm) -> None:
    stats = nm.resilience_summary()
    if stats is None:
        return
    _add(_fam(families, "repro_ladder_mode", "gauge",
              "Degradation-ladder rung (one-hot over the mode label)."),
         {**labels, "mode": stats.mode}, 1)
    _add(_fam(families, "repro_ladder_degradations_total", "counter",
              "Ladder transitions away from FULL."),
         labels, stats.degradations)
    _add(_fam(families, "repro_ladder_recoveries_total", "counter",
              "Ladder transitions back toward FULL."),
         labels, stats.recoveries)
    _add(_fam(families, "repro_static_caps_active", "gauge",
              "Static fallback caps currently asserted."),
         labels, stats.static_caps_active)
    breaker = stats.breaker
    _add(_fam(families, "repro_breaker_state", "gauge",
              "Circuit-breaker state (one-hot over the state label)."),
         {**labels, "state": breaker["state"]}, 1)
    for key in ("opens", "closes", "refused", "probe_failures"):
        _add(_fam(families, f"repro_breaker_{key}_total", "counter",
                  f"Circuit-breaker {key} count."), labels, breaker[key])


def _snapshot_control_plane(families: Dict[str, Family], plane) -> None:
    _add(_fam(families, "repro_controlplane_serial_ticks_total", "counter",
              "Coordinator serial_ticks count."), {}, plane.ticks)


def _snapshot_telemetry(families: Dict[str, Family], telemetry) -> None:
    ledger = telemetry.ledger
    if ledger is not None:
        _add(_fam(families, "repro_incidents_opened_total", "counter",
                  "Incidents opened (detector deviation onsets)."),
             {}, ledger.opened)
        _add(_fam(families, "repro_incidents_resolved_total", "counter",
                  "Incidents resolved (deviation cleared, caps released)."),
             {}, ledger.resolved)
        _add(_fam(families, "repro_incidents_open", "gauge",
                  "Incidents currently open."), {}, ledger.open)
    spans = telemetry.spans
    if spans is not None:
        _add(_fam(families, "repro_spans_recorded_total", "counter",
                  "Spans recorded."), {}, spans.recorded)
        _add(_fam(families, "repro_spans_dropped_total", "counter",
                  "Spans overwritten by the ring."), {}, spans.dropped)
        kinds = _fam(families, "repro_spans_retained", "gauge",
                     "Retained spans per kind.")
        for kind, count in spans.by_kind().items():
            _add(kinds, {"kind": kind}, count)


# ----------------------------------------------------------------- rendering
def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def render_text(families: Dict[str, Family]) -> str:
    """Serialize families to the Prometheus text format, sorted."""
    lines: List[str] = []
    for name in sorted(families):
        fam = families[name]
        lines.append(f"# HELP {name} {fam['help']}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for labels, value in sorted(fam["samples"]):  # type: ignore[arg-type]
            if labels:
                label_text = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in labels
                )
                lines.append(f"{name}{{{label_text}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, Dict[Labels, float]]:
    """Parse text produced by :func:`render_text` back into samples.

    Returns ``{family_name: {labels: value}}``.  Raises ``ValueError``
    on any line that is neither a comment nor a valid sample — the CI
    smoke job uses this as the format check.
    """
    out: Dict[str, Dict[Labels, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable exposition line {lineno}: {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = m.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw):
                labels.append((lm.group("k"), lm.group("v")))
                consumed = lm.end()
            if not labels or consumed < len(raw.rstrip(",")):
                raise ValueError(
                    f"unparseable labels on line {lineno}: {raw!r}")
        out.setdefault(m.group("name"), {})[tuple(labels)] = float(
            m.group("value"))
    return out

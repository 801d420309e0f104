"""Observability layer: incident ledger, exposition, spans, tracing.

The control loop's always-on monitoring surface (see
docs/OBSERVABILITY.md):

* :class:`Telemetry` — the per-deployment switchboard handed to
  :class:`~repro.core.perfcloud.PerfCloud`;
* :class:`IncidentLedger` / :class:`Incident` — one deterministic record
  per detector deviation, detect → identify → throttle → release;
* :func:`snapshot` / :func:`render_text` / :func:`parse_exposition` —
  Prometheus-style text exposition of every counter surface
  (``repro obs export``);
* :class:`SpanRecorder` — ring-buffered control-interval span tracing
  with JSONL export;
* :class:`MetricTracer` — the periodic raw-counter sampler.
"""

from repro.obs.exposition import parse_exposition, render_text, snapshot
from repro.obs.incidents import Incident, IncidentLedger
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import MetricTracer

__all__ = [
    "Incident",
    "IncidentLedger",
    "MetricTracer",
    "SpanRecorder",
    "Telemetry",
    "parse_exposition",
    "render_text",
    "snapshot",
]

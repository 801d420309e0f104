"""Interference detection: deviation of iowait ratio and CPI (§III-A).

The insight: scale-out frameworks spread work evenly across their worker
VMs, so under healthy conditions the per-VM block-iowait ratios and CPIs
on one host track each other closely.  Contention skews service unevenly
— the standard deviation across the application's VMs rises within a few
seconds, long before any task is late enough for application-level
speculation to notice.

The detector also keeps per-application deviation *time series*: the
victim signal the antagonist identifier correlates against, and the data
behind Figs. 3, 4 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from repro.core.config import PerfCloudConfig
from repro.core.monitor import VmSample
from repro.metrics.plane import MetricPlane
from repro.metrics.stats import RollingStats, group_std
from repro.metrics.timeseries import TimeSeries

__all__ = ["DetectionResult", "InterferenceDetector"]


@dataclass
class DetectionResult:
    """Outcome of one detection interval for one application on one host."""

    app_id: str
    time: float
    iowait_std: float
    cpi_std: float
    io_contention: bool
    cpu_contention: bool

    @property
    def any_contention(self) -> bool:
        """Either threshold exceeded this interval."""
        return self.io_contention or self.cpu_contention


class InterferenceDetector:
    """Per-application deviation computation and thresholding."""

    def __init__(self, config: PerfCloudConfig) -> None:
        self.config = config
        #: Deviation history per app: {"io": TimeSeries, "cpi": TimeSeries}.
        self.signals: Dict[str, Dict[str, TimeSeries]] = {}
        #: Incremental rolling mean/std of each deviation signal over the
        #: identification window — updated in O(1) as samples arrive, so
        #: per-interval consumers (adaptive thresholds, reporting) never
        #: recompute ``np.std(signal.tail(w))`` from scratch.
        self._rolling: Dict[str, Dict[str, RollingStats]] = {}

    def evaluate(
        self,
        now: float,
        samples: Mapping[str, VmSample],
        app_members: Mapping[str, Sequence[str]],
        plane: Optional[MetricPlane] = None,
    ) -> Dict[str, DetectionResult]:
        """Compute deviations for each high-priority application.

        Parameters
        ----------
        samples:
            Per-VM smoothed metrics from the performance monitor.
        app_members:
            app_id -> names of that application's VMs on this host.
        plane:
            Optional columnar store whose newest column holds this
            interval's samples.  When it is fresh at ``now`` the member
            values come from two masked-column reads instead of per-VM
            dict probes; the result is identical (the column holds the
            very floats the samples carry, and presence in the
            ``iowait_ratio`` column is exactly membership in
            ``samples``).
        """
        results: Dict[str, DetectionResult] = {}
        use_plane = plane is not None and plane.last_time == now
        for app_id, members in app_members.items():
            if use_plane:
                io_col = plane.latest("iowait_ratio", members)
                cpi_col = plane.latest("cpi", members)
                iowait_std = group_std(io_col.values())
                cpi_std = group_std(v for v in cpi_col.values() if v > 0)
            else:
                present = [m for m in members if m in samples]
                iowait_std = group_std(samples[m].iowait_ratio for m in present)
                cpi_std = group_std(
                    samples[m].cpi for m in present if samples[m].cpi > 0
                )
            results[app_id] = self.record(now, app_id, iowait_std, cpi_std)
        return results

    def record(
        self, now: float, app_id: str, iowait_std: float, cpi_std: float
    ) -> DetectionResult:
        """Threshold one app's deviations and append its signal history.

        The tail of :meth:`evaluate`, once per application.
        """
        result = DetectionResult(
            app_id=app_id,
            time=now,
            iowait_std=iowait_std,
            cpi_std=cpi_std,
            io_contention=iowait_std > self.config.h_io,
            cpu_contention=cpi_std > self.config.h_cpi,
        )
        sig = self.signals.get(app_id)
        if sig is None:
            sig = self.signals[app_id] = {
                "io": TimeSeries(name=f"{app_id}.iowait_std"),
                "cpi": TimeSeries(name=f"{app_id}.cpi_std"),
            }
        sig["io"].append(now, iowait_std)
        sig["cpi"].append(now, cpi_std)
        roll = self._rolling.get(app_id)
        if roll is None:
            roll = self._rolling[app_id] = {
                "io": RollingStats(self.config.corr_window),
                "cpi": RollingStats(self.config.corr_window),
            }
        roll["io"].push(iowait_std)
        roll["cpi"].push(cpi_std)
        return result

    def signal(self, app_id: str, kind: str) -> TimeSeries:
        """Deviation history: ``kind`` is ``"io"`` or ``"cpi"``."""
        if kind not in ("io", "cpi"):
            raise ValueError(f"kind must be 'io' or 'cpi', got {kind!r}")
        if app_id not in self.signals:
            raise KeyError(f"no signal history for app {app_id!r}")
        return self.signals[app_id][kind]

    def rolling(self, app_id: str, kind: str) -> RollingStats:
        """Incrementally-maintained window stats of one deviation signal."""
        if kind not in ("io", "cpi"):
            raise ValueError(f"kind must be 'io' or 'cpi', got {kind!r}")
        if app_id not in self._rolling:
            raise KeyError(f"no signal history for app {app_id!r}")
        return self._rolling[app_id][kind]

"""Typed scenario definitions and their dict round-trip.

The whole DSL is a tree of frozen dataclasses so that

* a spec is hashable content: :func:`scenario_hash` reuses the result
  cache's canonical encoding, giving every scenario a stable identity
  across processes and ``PYTHONHASHSEED`` values;
* parsing is *strict*: unknown keys, wrong types, and out-of-range
  values raise :class:`ScenarioError` naming the offending field path
  (``world.antagonists[1].kind``), never a bare ``KeyError``;
* ``parse(serialize(parse(x))) == parse(x)`` — the serializer emits the
  fully-explicit normal form, so one round trip reaches a fixed point.

Execution and judgement are deliberately split: :class:`WorldDef` is
everything that determines *what happens* (and therefore the result
cache key), while ``name``/``tags``/``expect`` only determine how the
outcome is judged — editing an expectation re-scores a cached outcome
without re-simulating it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import PerfCloudConfig
from repro.experiments.cache import stable_hash
from repro.faults.spec import CrashEvent, FaultPlan
from repro.workloads.antagonists import ANTAGONISTS

__all__ = [
    "AntagonistDef",
    "Expectation",
    "HostDef",
    "JobDef",
    "PolicyDef",
    "ScenarioError",
    "ScenarioSpec",
    "TrafficDef",
    "WorkloadDef",
    "WorldDef",
    "scenario_hash",
]

#: Antagonist kinds the world builder knows how to boot: the single-VM
#: registry plus ``iperf-pair``, which expands into two VMs streaming at
#: each other (the paper's network blind spot).
ANTAGONIST_KINDS = tuple(sorted([*ANTAGONISTS, "iperf-pair"]))

#: Comparators the scorer implements (see scorer.py for semantics).
OPS = (
    "<", "<=", ">", ">=", "==", "!=",
    "approx", "set_eq", "contains", "not_contains", "is_empty", "not_empty",
)

_SET_OPS = ("set_eq", "contains", "not_contains")
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")
_EXPECT_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.-]*)\s*(<=|>=|==|!=|<|>)\s*(.+?)\s*$"
)

Scalar = Union[bool, int, float, str]


class ScenarioError(ValueError):
    """A scenario document failed validation.

    ``field`` is the dotted path of the offending entry — the diagnostic
    contract the loader tests pin down.
    """

    def __init__(self, field_path: str, message: str) -> None:
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


# --------------------------------------------------------------------------
# strict mapping access
# --------------------------------------------------------------------------

def _as_mapping(obj: Any, path: str) -> Dict[str, Any]:
    if not isinstance(obj, Mapping):
        raise ScenarioError(path, f"expected a mapping, got {type(obj).__name__}")
    out = {}
    for k in obj:
        if not isinstance(k, str):
            raise ScenarioError(path, f"non-string key {k!r}")
        out[k] = obj[k]
    return out


def _check_known(d: Mapping[str, Any], path: str, known: Sequence[str]) -> None:
    for k in d:
        if k not in known:
            raise ScenarioError(
                f"{path}.{k}",
                f"unknown field (known: {', '.join(sorted(known))})",
            )


def _get(
    d: Mapping[str, Any], key: str, path: str, typ, default=..., *,
    minimum=None, maximum=None, choices=None,
):
    """Typed lookup with range/choice validation; ``...`` = required."""
    if key not in d:
        if default is ...:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    value = d[key]
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if typ is not None and (not isinstance(value, typ)
                            or (typ in (int, float) and isinstance(value, bool))):
        want = typ.__name__ if not isinstance(typ, tuple) else "/".join(
            t.__name__ for t in typ
        )
        raise ScenarioError(
            f"{path}.{key}", f"expected {want}, got {type(value).__name__} {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}.{key}", f"must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{path}.{key}", f"must be <= {maximum}, got {value!r}")
    if choices is not None and value not in choices:
        raise ScenarioError(
            f"{path}.{key}", f"must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def _get_seq(d: Mapping[str, Any], key: str, path: str, default=...) -> List[Any]:
    if key not in d:
        if default is ...:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return list(default)
    value = d[key]
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(
            f"{path}.{key}", f"expected a list, got {type(value).__name__}"
        )
    return list(value)


def _pairs(d: Mapping[str, Any], path: str) -> Tuple[Tuple[str, Scalar], ...]:
    """A mapping of scalars as a canonically-sorted tuple of pairs."""
    items: List[Tuple[str, Scalar]] = []
    for k in sorted(_as_mapping(d, path)):
        v = d[k]
        if not isinstance(v, (bool, int, float, str)) and v is not None:
            raise ScenarioError(
                f"{path}.{k}", f"expected a scalar, got {type(v).__name__}"
            )
        items.append((k, v))
    return tuple(items)


# --------------------------------------------------------------------------
# definitions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HostDef:
    """One physical server, as a delta over a named base spec."""

    spec: str = "r630"
    #: Override the NIC (Gbit/s each way); the network scenarios' knob.
    nic_gbps: Optional[float] = None
    #: Relative CPU speed (heterogeneous-cluster scenarios).
    speed_factor: Optional[float] = None
    cores: Optional[int] = None
    #: Override the block device's random-IOPS ceiling.
    disk_iops: Optional[float] = None

    @staticmethod
    def from_dict(d: Any, path: str) -> "HostDef":
        d = _as_mapping(d, path)
        _check_known(d, path, ("spec", "nic_gbps", "speed_factor", "cores",
                               "disk_iops"))
        return HostDef(
            spec=_get(d, "spec", path, str, "r630", choices=("r630",)),
            nic_gbps=_get(d, "nic_gbps", path, float, None, minimum=0.001),
            speed_factor=_get(d, "speed_factor", path, float, None, minimum=0.01),
            cores=_get(d, "cores", path, int, None, minimum=1),
            disk_iops=_get(d, "disk_iops", path, float, None, minimum=1.0),
        )


@dataclass(frozen=True)
class JobDef:
    """One explicitly-submitted job."""

    kind: str  # "mapreduce" | "spark"
    benchmark: str
    size_mb: float
    submit_at: float = 0.0
    reducers: Optional[int] = None
    #: Victim jobs define ``victim_jct`` (default: the first job).
    victim: bool = False
    # Spark-only shape overrides (None keeps the benchmark's own value).
    # These let a scenario dial a registry benchmark into, e.g., the
    # join-heavy all-shuffle regime of the network blind-spot example.
    iterations: Optional[int] = None
    shuffle_ratio: Optional[float] = None
    cpu_per_mb: Optional[float] = None
    disk_fraction: Optional[float] = None

    @staticmethod
    def from_dict(d: Any, path: str) -> "JobDef":
        d = _as_mapping(d, path)
        _check_known(d, path, ("kind", "benchmark", "size_mb", "submit_at",
                               "reducers", "victim", "iterations",
                               "shuffle_ratio", "cpu_per_mb",
                               "disk_fraction"))
        kind = _get(d, "kind", path, str, choices=("mapreduce", "spark"))
        benchmark = _get(d, "benchmark", path, str)
        from repro.workloads.puma import PUMA_BENCHMARKS
        from repro.workloads.sparkbench import SPARKBENCH_BENCHMARKS

        registry = PUMA_BENCHMARKS if kind == "mapreduce" else SPARKBENCH_BENCHMARKS
        if benchmark not in registry:
            raise ScenarioError(
                f"{path}.benchmark",
                f"unknown {kind} benchmark {benchmark!r} "
                f"(known: {', '.join(sorted(registry))})",
            )
        if kind != "spark":
            for key in ("iterations", "shuffle_ratio", "cpu_per_mb",
                        "disk_fraction"):
                if key in d:
                    raise ScenarioError(
                        f"{path}.{key}",
                        f"{key} is a spark shape override, not valid for "
                        f"{kind!r} jobs",
                    )
        return JobDef(
            kind=kind,
            benchmark=benchmark,
            size_mb=_get(d, "size_mb", path, float, minimum=1.0),
            submit_at=_get(d, "submit_at", path, float, 0.0, minimum=0.0),
            reducers=_get(d, "reducers", path, int, None, minimum=1),
            victim=_get(d, "victim", path, bool, False),
            iterations=_get(d, "iterations", path, int, None, minimum=1),
            shuffle_ratio=_get(d, "shuffle_ratio", path, float, None,
                               minimum=0.0),
            cpu_per_mb=_get(d, "cpu_per_mb", path, float, None, minimum=0.0),
            disk_fraction=_get(d, "disk_fraction", path, float, None,
                               minimum=0.0),
        )


@dataclass(frozen=True)
class TrafficDef:
    """A generated arrival stream instead of (or on top of) explicit jobs."""

    pattern: str  # "diurnal" | "flash-crowd" | "poisson"
    kind: str = "mapreduce"
    jobs: int = 10
    benchmarks: Tuple[str, ...] = ()
    small_fraction: float = 0.9
    max_tasks: int = 10
    # poisson / diurnal
    mean_interarrival_s: float = 30.0
    # diurnal
    period_s: float = 2000.0
    trough_factor: float = 0.1
    peak_at_frac: float = 0.5
    # flash-crowd
    at_s: float = 300.0
    spread_s: float = 60.0
    background: int = 0
    background_interarrival_s: float = 120.0

    @staticmethod
    def from_dict(d: Any, path: str) -> "TrafficDef":
        d = _as_mapping(d, path)
        _check_known(d, path, tuple(f.name for f in fields(TrafficDef)))
        kind = _get(d, "kind", path, str, "mapreduce",
                    choices=("mapreduce", "spark"))
        benchmarks = tuple(
            _get({"b": b}, "b", f"{path}.benchmarks[{i}]", str)
            for i, b in enumerate(_get_seq(d, "benchmarks", path, ()))
        )
        from repro.workloads.mix import _validated_names

        try:
            _validated_names(kind, benchmarks or None)
        except KeyError as exc:
            raise ScenarioError(f"{path}.benchmarks", str(exc)) from exc
        return TrafficDef(
            pattern=_get(d, "pattern", path, str,
                         choices=("diurnal", "flash-crowd", "poisson")),
            kind=kind,
            jobs=_get(d, "jobs", path, int, 10, minimum=1),
            benchmarks=benchmarks,
            small_fraction=_get(d, "small_fraction", path, float, 0.9,
                                minimum=0.0, maximum=1.0),
            max_tasks=_get(d, "max_tasks", path, int, 10, minimum=1, maximum=50),
            mean_interarrival_s=_get(d, "mean_interarrival_s", path, float,
                                     30.0, minimum=0.001),
            period_s=_get(d, "period_s", path, float, 2000.0, minimum=1.0),
            trough_factor=_get(d, "trough_factor", path, float, 0.1,
                               minimum=0.0, maximum=1.0),
            peak_at_frac=_get(d, "peak_at_frac", path, float, 0.5,
                              minimum=0.0, maximum=1.0),
            at_s=_get(d, "at_s", path, float, 300.0, minimum=0.0),
            spread_s=_get(d, "spread_s", path, float, 60.0, minimum=0.0),
            background=_get(d, "background", path, int, 0, minimum=0),
            background_interarrival_s=_get(d, "background_interarrival_s",
                                           path, float, 120.0, minimum=0.001),
        )


@dataclass(frozen=True)
class AntagonistDef:
    """One antagonist VM (or, for ``iperf-pair``, a pair of them)."""

    kind: str
    host: int = 0
    #: Second endpoint of an iperf pair (required for ``iperf-pair``).
    peer_host: Optional[int] = None
    name: Optional[str] = None
    #: Attach the workload this long into the run.
    start_s: float = 0.0
    #: Ground truth for false-positive accounting: decoys and
    #: invisible-to-the-detector antagonists set this False.
    guilty: bool = True
    #: Driver keyword overrides (iops_demand, rate_gbps, streams, ...).
    params: Tuple[Tuple[str, Scalar], ...] = ()

    @staticmethod
    def from_dict(d: Any, path: str) -> "AntagonistDef":
        d = _as_mapping(d, path)
        _check_known(d, path, ("kind", "host", "peer_host", "name", "start_s",
                               "guilty", "params"))
        kind = _get(d, "kind", path, str, choices=ANTAGONIST_KINDS)
        peer = _get(d, "peer_host", path, int, None, minimum=0)
        if kind == "iperf-pair" and peer is None:
            raise ScenarioError(f"{path}.peer_host",
                                "iperf-pair requires a peer_host")
        if kind != "iperf-pair" and peer is not None:
            raise ScenarioError(f"{path}.peer_host",
                                f"only iperf-pair takes a peer_host, not {kind!r}")
        params = (_pairs(_as_mapping(d["params"], f"{path}.params"),
                         f"{path}.params")
                  if "params" in d else ())
        return AntagonistDef(
            kind=kind,
            host=_get(d, "host", path, int, 0, minimum=0),
            peer_host=peer,
            name=_get(d, "name", path, str, None),
            start_s=_get(d, "start_s", path, float, 0.0, minimum=0.0),
            guilty=_get(d, "guilty", path, bool, True),
            params=params,
        )


@dataclass(frozen=True)
class PolicyDef:
    """Which isolation policy runs, and with what config overrides."""

    kind: str = "perfcloud"  # "perfcloud" | "none"
    config: Tuple[Tuple[str, Scalar], ...] = ()

    @staticmethod
    def from_dict(d: Any, path: str) -> "PolicyDef":
        d = _as_mapping(d, path)
        _check_known(d, path, ("kind", "config"))
        kind = _get(d, "kind", path, str, "perfcloud",
                    choices=("perfcloud", "none"))
        config = (_pairs(_as_mapping(d["config"], f"{path}.config"),
                         f"{path}.config")
                  if "config" in d else ())
        known = {f.name for f in fields(PerfCloudConfig)}
        for key, _ in config:
            if key not in known:
                raise ScenarioError(
                    f"{path}.config.{key}",
                    f"not a PerfCloudConfig field (known: {', '.join(sorted(known))})",
                )
        return PolicyDef(kind=kind, config=config)

    def build_config(self) -> PerfCloudConfig:
        """The PerfCloudConfig with this policy's overrides applied."""
        return replace(PerfCloudConfig(), **dict(self.config))


@dataclass(frozen=True)
class WorkloadDef:
    """The protected application(s) and their jobs."""

    framework: str = "mapreduce"  # "mapreduce" | "spark" | "both"
    workers: int = 6
    app_id: str = "app"
    scheduler_policy: str = "fifo"
    jobs: Tuple[JobDef, ...] = ()
    traffic: Optional[TrafficDef] = None
    #: Extra high-priority app groups (idle VMs) — they trigger the
    #: paper's colocated-apps conflict reporting, nothing else.
    bystander_apps: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def from_dict(d: Any, path: str) -> "WorkloadDef":
        d = _as_mapping(d, path)
        _check_known(d, path, ("framework", "workers", "app_id",
                               "scheduler_policy", "jobs", "traffic",
                               "bystander_apps"))
        jobs = tuple(
            JobDef.from_dict(j, f"{path}.jobs[{i}]")
            for i, j in enumerate(_get_seq(d, "jobs", path, ()))
        )
        traffic = (TrafficDef.from_dict(d["traffic"], f"{path}.traffic")
                   if d.get("traffic") is not None else None)
        if not jobs and traffic is None:
            raise ScenarioError(f"{path}.jobs",
                                "need explicit jobs and/or a traffic block")
        bystanders: List[Tuple[str, int]] = []
        for i, b in enumerate(_get_seq(d, "bystander_apps", path, ())):
            bp = f"{path}.bystander_apps[{i}]"
            bm = _as_mapping(b, bp)
            _check_known(bm, bp, ("app_id", "workers"))
            bystanders.append((
                _get(bm, "app_id", bp, str),
                _get(bm, "workers", bp, int, 1, minimum=1),
            ))
        return WorkloadDef(
            framework=_get(d, "framework", path, str, "mapreduce",
                           choices=("mapreduce", "spark", "both")),
            workers=_get(d, "workers", path, int, 6, minimum=1),
            app_id=_get(d, "app_id", path, str, "app"),
            scheduler_policy=_get(d, "scheduler_policy", path, str, "fifo",
                                  choices=("fifo", "fair")),
            jobs=jobs,
            traffic=traffic,
            bystander_apps=tuple(bystanders),
        )


def _fault_plan_from_dict(d: Any, path: str) -> FaultPlan:
    d = _as_mapping(d, path)
    known = tuple(f.name for f in fields(FaultPlan))
    _check_known(d, path, known)
    kwargs: Dict[str, Any] = {}
    for f in fields(FaultPlan):
        if f.name not in d:
            continue
        value = d[f.name]
        if f.name == "crashes":
            crashes = []
            for i, c in enumerate(_get_seq(d, "crashes", path)):
                cp = f"{path}.crashes[{i}]"
                cm = _as_mapping(c, cp)
                _check_known(cm, cp, ("vm", "at_s", "restart_after_s"))
                crashes.append(CrashEvent(
                    vm=_get(cm, "vm", cp, str),
                    at_s=_get(cm, "at_s", cp, float, minimum=0.0),
                    restart_after_s=_get(cm, "restart_after_s", cp, float,
                                         30.0, minimum=0.001),
                ))
            value = tuple(crashes)
        elif f.name == "persistent_failures":
            value = tuple(
                tuple(pair) for pair in _get_seq(d, f.name, path)
            )
        elif f.name == "vms":
            if value is not None:
                value = tuple(
                    _get({"v": v}, "v", f"{path}.vms[{i}]", str)
                    for i, v in enumerate(_get_seq(d, "vms", path))
                )
        elif isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        kwargs[f.name] = value
    try:
        return FaultPlan(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"invalid fault plan: {exc}") from exc


def _fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in fields(plan):
        value = getattr(plan, f.name)
        if f.name == "crashes":
            value = [
                {"vm": c.vm, "at_s": c.at_s, "restart_after_s": c.restart_after_s}
                for c in value
            ]
        elif f.name == "persistent_failures":
            value = [list(pair) for pair in value]
        elif f.name == "vms":
            value = list(value) if value is not None else None
        out[f.name] = value
    return out


@dataclass(frozen=True)
class WorldDef:
    """Everything that determines what happens — the cacheable part."""

    seed: int = 0
    dt: float = 1.0
    horizon: float = 4000.0
    #: Keep simulating this long after the last job completes.
    cooldown_s: float = 60.0
    hosts: Tuple[HostDef, ...] = (HostDef(),)
    workload: WorkloadDef = field(default_factory=WorkloadDef)
    antagonists: Tuple[AntagonistDef, ...] = ()
    faults: Optional[FaultPlan] = None
    policy: PolicyDef = PolicyDef()

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ScenarioError("world.topology.hosts", "need at least one host")

    @staticmethod
    def from_dict(d: Any, path: str = "world") -> "WorldDef":
        d = _as_mapping(d, path)
        _check_known(d, path, ("seed", "dt", "horizon", "cooldown_s",
                               "topology", "workload", "antagonists",
                               "faults", "policy"))
        topo_path = f"{path}.topology"
        topo = _as_mapping(d.get("topology", {}), topo_path)
        _check_known(topo, topo_path, ("hosts", "count", "spec", "nic_gbps",
                                       "speed_factor", "cores", "disk_iops"))
        if "hosts" in topo:
            if "count" in topo:
                raise ScenarioError(f"{topo_path}.count",
                                    "give either hosts or count, not both")
            hosts = tuple(
                HostDef.from_dict(h, f"{topo_path}.hosts[{i}]")
                for i, h in enumerate(_get_seq(topo, "hosts", topo_path))
            )
        else:
            count = _get(topo, "count", topo_path, int, 1, minimum=1)
            shorthand = {k: v for k, v in topo.items() if k != "count"}
            hosts = (HostDef.from_dict(shorthand, topo_path),) * count
        if not hosts:
            raise ScenarioError(f"{topo_path}.hosts", "need at least one host")

        antagonists = tuple(
            AntagonistDef.from_dict(a, f"{path}.antagonists[{i}]")
            for i, a in enumerate(_get_seq(d, "antagonists", path, ()))
        )
        nhosts = len(hosts)
        for i, a in enumerate(antagonists):
            for key, idx in (("host", a.host), ("peer_host", a.peer_host)):
                if idx is not None and idx >= nhosts:
                    raise ScenarioError(
                        f"{path}.antagonists[{i}].{key}",
                        f"host index {idx} out of range (topology has {nhosts})",
                    )
        faults = (_fault_plan_from_dict(d["faults"], f"{path}.faults")
                  if d.get("faults") is not None else None)
        return WorldDef(
            seed=_get(d, "seed", path, int, 0, minimum=0),
            dt=_get(d, "dt", path, float, 1.0, minimum=0.001),
            horizon=_get(d, "horizon", path, float, 4000.0, minimum=1.0),
            cooldown_s=_get(d, "cooldown_s", path, float, 60.0, minimum=0.0),
            hosts=hosts,
            workload=WorkloadDef.from_dict(d.get("workload", {}),
                                           f"{path}.workload"),
            antagonists=antagonists,
            faults=faults,
            policy=PolicyDef.from_dict(d.get("policy", {}), f"{path}.policy"),
        )


def _parse_expect_value(raw: str):
    """Literal of a compact-form expectation's right-hand side."""
    text = raw.strip()
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(p.strip().strip("'\"") for p in inner.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text.strip("'\"")


@dataclass(frozen=True)
class Expectation:
    """One typed assertion over the outcome metrics."""

    metric: str
    op: str
    value: Union[Scalar, Tuple[str, ...], None] = None
    #: Half-width of the ``approx`` tolerance band.
    tol: Optional[float] = None

    @staticmethod
    def from_obj(obj: Any, path: str) -> "Expectation":
        if isinstance(obj, str):
            m = _EXPECT_RE.match(obj)
            if m is None:
                raise ScenarioError(
                    path, f"cannot parse compact expectation {obj!r} "
                          "(want 'metric OP value')"
                )
            metric, op, value = m.group(1), m.group(2), _parse_expect_value(m.group(3))
            d: Dict[str, Any] = {"metric": metric, "op": op, "value": value}
        else:
            d = _as_mapping(obj, path)
        _check_known(d, path, ("metric", "op", "value", "tol"))
        metric = _get(d, "metric", path, str)
        op = _get(d, "op", path, str, choices=OPS)
        tol = _get(d, "tol", path, float, None, minimum=0.0)
        value = d.get("value")
        if op == "approx":
            if tol is None:
                raise ScenarioError(f"{path}.tol", "approx requires a tol")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(f"{path}.value",
                                    "approx requires a numeric value")
        elif tol is not None:
            raise ScenarioError(f"{path}.tol", f"op {op!r} does not take a tol")
        if op in _SET_OPS or (op in ("==", "!=") and
                              isinstance(value, (list, tuple))):
            seq = [value] if isinstance(value, str) else value
            if not isinstance(seq, (list, tuple)):
                raise ScenarioError(
                    f"{path}.value", f"op {op!r} requires a list of names"
                )
            value = tuple(
                _get({"v": v}, "v", f"{path}.value[{i}]", str)
                for i, v in enumerate(seq)
            )
        elif op in ("is_empty", "not_empty"):
            if value is not None:
                raise ScenarioError(f"{path}.value",
                                    f"op {op!r} does not take a value")
        elif not isinstance(value, (bool, int, float, str)):
            raise ScenarioError(
                f"{path}.value",
                f"expected a scalar, got {type(value).__name__}",
            )
        return Expectation(metric=metric, op=op, value=value, tol=tol)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"metric": self.metric, "op": self.op}
        if self.value is not None or self.op not in ("is_empty", "not_empty"):
            out["value"] = (list(self.value) if isinstance(self.value, tuple)
                            else self.value)
        if self.tol is not None:
            out["tol"] = self.tol
        return out


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, tagged, judged scenario."""

    name: str
    world: WorldDef
    description: str = ""
    tags: Tuple[str, ...] = ()
    expect: Tuple[Expectation, ...] = ()

    @staticmethod
    def from_dict(d: Any, path: str = "scenario") -> "ScenarioSpec":
        d = _as_mapping(d, path)
        _check_known(d, path, ("name", "description", "tags", "world", "expect"))
        name = _get(d, "name", path, str)
        if not _NAME_RE.match(name):
            raise ScenarioError(
                f"{path}.name",
                f"{name!r} must match {_NAME_RE.pattern} (lowercase slug)",
            )
        tags = tuple(
            _get({"t": t}, "t", f"{path}.tags[{i}]", str)
            for i, t in enumerate(_get_seq(d, "tags", path, ()))
        )
        if "world" not in d:
            raise ScenarioError(f"{path}.world", "required field is missing")
        expect = tuple(
            Expectation.from_obj(e, f"{path}.expect[{i}]")
            for i, e in enumerate(_get_seq(d, "expect", path, ()))
        )
        if not expect:
            raise ScenarioError(f"{path}.expect",
                                "a scenario must assert at least one expectation")
        return ScenarioSpec(
            name=name,
            description=_get(d, "description", path, str, ""),
            tags=tags,
            world=WorldDef.from_dict(d["world"], f"{path}.world"),
            expect=expect,
        )

    # ------------------------------------------------------------ serialize
    def to_dict(self) -> Dict[str, Any]:
        """The fully-explicit normal form (stable under reparsing)."""
        w = self.world
        return {
            "name": self.name,
            "description": self.description,
            "tags": list(self.tags),
            "world": {
                "seed": w.seed,
                "dt": w.dt,
                "horizon": w.horizon,
                "cooldown_s": w.cooldown_s,
                "topology": {
                    "hosts": [
                        {k: v for k, v in (
                            ("spec", h.spec), ("nic_gbps", h.nic_gbps),
                            ("speed_factor", h.speed_factor),
                            ("cores", h.cores), ("disk_iops", h.disk_iops),
                        ) if v is not None}
                        for h in w.hosts
                    ]
                },
                "workload": {
                    "framework": w.workload.framework,
                    "workers": w.workload.workers,
                    "app_id": w.workload.app_id,
                    "scheduler_policy": w.workload.scheduler_policy,
                    "jobs": [
                        {
                            "kind": j.kind, "benchmark": j.benchmark,
                            "size_mb": j.size_mb, "submit_at": j.submit_at,
                            **({"reducers": j.reducers}
                               if j.reducers is not None else {}),
                            "victim": j.victim,
                            **{k: v for k, v in (
                                ("iterations", j.iterations),
                                ("shuffle_ratio", j.shuffle_ratio),
                                ("cpu_per_mb", j.cpu_per_mb),
                                ("disk_fraction", j.disk_fraction),
                            ) if v is not None},
                        }
                        for j in w.workload.jobs
                    ],
                    **({"traffic": {
                        f.name: (list(getattr(w.workload.traffic, f.name))
                                 if f.name == "benchmarks"
                                 else getattr(w.workload.traffic, f.name))
                        for f in fields(TrafficDef)
                    }} if w.workload.traffic is not None else {}),
                    **({"bystander_apps": [
                        {"app_id": a, "workers": n}
                        for a, n in w.workload.bystander_apps
                    ]} if w.workload.bystander_apps else {}),
                },
                **({"antagonists": [
                    {
                        "kind": a.kind, "host": a.host,
                        **({"peer_host": a.peer_host}
                           if a.peer_host is not None else {}),
                        **({"name": a.name} if a.name is not None else {}),
                        "start_s": a.start_s,
                        "guilty": a.guilty,
                        **({"params": dict(a.params)} if a.params else {}),
                    }
                    for a in w.antagonists
                ]} if w.antagonists else {}),
                **({"faults": _fault_plan_to_dict(w.faults)}
                   if w.faults is not None else {}),
                "policy": {
                    "kind": w.policy.kind,
                    **({"config": dict(w.policy.config)}
                       if w.policy.config else {}),
                },
            },
            "expect": [e.to_dict() for e in self.expect],
        }

    def has_tag(self, tag: str) -> bool:
        """Whether this scenario carries ``tag``."""
        return tag in self.tags

    @property
    def needs_baseline(self) -> bool:
        """Whether any expectation needs an antagonist-free reference run."""
        return any(e.metric.endswith("_slowdown") for e in self.expect)

    @property
    def guilty_antagonists(self) -> Tuple[str, ...]:
        """Declared-guilty antagonist VM names (ground truth)."""
        from repro.scenarios.world import antagonist_names

        return tuple(
            n for a in self.world.antagonists if a.guilty
            for n in antagonist_names(a, self.world.antagonists)
        )


def scenario_hash(spec: ScenarioSpec) -> str:
    """Content hash of one scenario (stable across processes).

    Hashes the *normal form*, so a reformatted YAML file with identical
    semantics keeps its hash, while any semantic edit — a seed, a
    threshold, an expectation — changes it.
    """
    return stable_hash(spec.to_dict())

"""Experiment configuration."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, NamedTuple, Optional

from repro import locate

__all__ = ["SUBSYSTEMS", "SimulationConfig", "field_values", "json_default", "param_keys"]

_MODELS = ("simulation", "prototype")
_ENGINES = ("heap", "calendar", "fast")

#: ServiceCluster keyword arguments a config may forward (kept JSON-native
#: so cache keys survive an archive round trip)
_CLUSTER_PARAM_KEYS = frozenset(
    {
        "availability",
        "availability_refresh",
        "availability_ttl",
        "request_timeout",
        "max_retries",
        "server_max_queue",
        "record_server_queues",
    }
)


class Subsystem(NamedTuple):
    """One optional subsystem, as each layer needs to know it."""

    #: ``module:Class`` owning the knob names: a dataclass answers through
    #: ``field_names()``, a plain class through its constructor signature
    #: (minus the ``cluster`` it is attached to)
    owner: str
    #: the :class:`ServiceCluster` attribute the live object sits on
    attr: str
    #: ``SimulationConfig.describe()`` suffix
    tag: str
    #: why ``engine="fast"`` refuses it
    fast_refusal: str
    #: the :class:`ServiceCluster` keyword taking ``Owner(**knobs)``; without
    #: one, ``attr`` is set once the workload is loaded, to
    #: ``Owner(cluster, **knobs)`` or, given a ``module:Class`` injector,
    #: ``Injector(cluster, spec=Owner(**knobs))``
    keyword: str = ""
    injector: str = ""
    #: cluster accessor whose dict joins ``chaos_counters`` on chaos-free runs
    counters: str = ""
    #: the :class:`ModeAxis` knob set that fills the field
    mode: str = ""


#: config field -> its subsystem: the one list of them. Order matters:
#: tags, refusals and counters are emitted in it.
SUBSYSTEMS = {
    "chaos_params": Subsystem(
        "repro.cluster.failures:ChaosSpec", "chaos",
        " +chaos", "fault injection",
        injector="repro.cluster.failures:ChaosInjector",
    ),
    "telemetry": Subsystem(
        "repro.telemetry.collector:TelemetryCollector", "telemetry",
        "", "per-request span recording", mode="telemetry",
    ),
    "reliability_params": Subsystem(
        "repro.cluster.reliability:ReliabilityPolicy", "reliability",
        " +reliability", "timeouts/backoff/hedging",
        keyword="reliability", counters="reliability.counters", mode="reliability",
    ),
    "overload_params": Subsystem(
        "repro.cluster.overload:OverloadPolicy", "overload",
        " +overload", "admission control",
        keyword="overload", counters="overload_counters", mode="overload",
    ),
    "dispatcher_params": Subsystem(
        "repro.cluster.dispatcher:DispatcherPolicy", "dispatchers",
        " +dispatchers", "dispatcher-tier routing",
        keyword="dispatcher", counters="dispatchers.counters", mode="dispatcher",
    ),
    "autoscaler_params": Subsystem(
        "repro.cluster.autoscaler:AutoscalerPolicy", "autoscaler",
        " +autoscale", "closed-loop scaling",
        keyword="autoscaler", counters="autoscaler.counters", mode="autoscaler",
    ),
    "verify_params": Subsystem(
        "repro.verify.oracle:InvariantOracle", "oracle",
        " +verify", "inline invariant oracle",
    ),
}


@functools.cache
def param_keys(field_name: str) -> frozenset:
    """The knob names a :class:`SimulationConfig` dict field accepts.

    Derived from the owning class on first use and cached; callers ask
    only for a non-empty dict.
    """
    if field_name == "cluster_params":
        return _CLUSTER_PARAM_KEYS
    if field_name == "overhead_params":
        owner = locate("repro.prototype.overhead:PrototypeOverheadModel")
    else:
        owner = locate(SUBSYSTEMS[field_name].owner)
    if hasattr(owner, "field_names"):
        return owner.field_names()
    return frozenset(inspect.signature(owner).parameters) - {"cluster"}


def field_values(obj: Any) -> dict[str, Any]:
    """A dataclass instance's fields by name, in declaration order, with
    the values left as they are.

    The one walk that turns a :class:`SimulationConfig` (or a result
    holding one) into JSON: cache keys, the scenario duplicate-cell
    check and archive records all go through it. ``dataclasses.asdict``
    made the same dict by deep-copying every params dict first, ~20x
    the walk's cost; with :func:`json_default` the encoded bytes are the
    same.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def json_default(value: Any) -> Any:
    """``json.dumps`` ``default`` for what a config or result may hold
    beyond JSON: a dataclass (a config inside a result, a
    ``PollDelayModel`` in ``overhead_params``) becomes its
    :func:`field_values`, any other iterable a list — what ``asdict``
    followed by ``default=list`` made of them."""
    if is_dataclass(value) and not isinstance(value, type):
        return field_values(value)
    return list(value)


@dataclass(frozen=True)
class SimulationConfig:
    """One cluster run: policy × workload × load × model.

    ``model`` selects the paper's §2 pure simulation ("simulation") or
    the §4 prototype-fidelity model ("prototype"): the latter adds the
    overhead model and interprets ``load`` against the empirically
    calibrated full-load point (98%-under-2s rule) instead of nominal
    utilization.

    ``overhead_params`` override :class:`PrototypeOverheadModel` fields;
    ``full_load_rho`` short-circuits the calibration bisection when the
    caller has already computed it (the sweep drivers do this once per
    workload). ``server_speeds`` gives one positive speed factor per
    server (heterogeneity); ``None`` runs every server at 1.0.

    ``engine`` selects the execution engine: "heap" and "calendar" are
    exact event-queue implementations producing bit-identical results
    (the calendar is slower at every size and is kept as the heap's
    differential partner for ``repro parity`` and the fuzzer, not as a
    speed knob), while "fast" is the numpy batch engine
    (:mod:`repro.sim.fastpath`) — distribution-identical, not
    bit-identical, and restricted to the homogeneous simulation-model
    policies (unsupported knobs raise ``FastpathUnsupportedError``
    instead of silently falling back). The field participates in the
    result-cache key so engine comparisons never alias each other's
    cache entries.

    ``cluster_params`` forwards extra :class:`ServiceCluster` keyword
    arguments (availability subsystem, request timeouts, admission
    control); ``chaos_params`` — :class:`ChaosSpec` knobs — installs a
    chaos injector for the run. Both must contain only JSON-native
    scalars so cache keys survive an archive round trip.

    ``telemetry`` — :class:`repro.telemetry.TelemetryCollector` knobs
    (``spans``, ``sample_interval``, ``max_spans``) — opts the run into
    request-lifecycle telemetry; an empty dict (the default) means off
    and keeps every hot path exactly as before. Telemetry never changes
    simulation results (no events, no RNG draws — DESIGN.md §10), only
    what is *recorded* about them.

    ``reliability_params`` — :class:`repro.cluster.reliability.
    ReliabilityPolicy` knobs (deadline budgets, backoff, retry budgets,
    hedging, circuit breakers) — installs the request reliability layer
    for the run; an empty dict (the default) keeps the naive lifecycle
    bit-identical to pre-reliability builds (DESIGN.md §11). The field
    participates in the result-cache key, so hardened and naive runs
    never alias each other's cache entries.

    ``overload_params`` — :class:`repro.cluster.overload.OverloadPolicy`
    knobs (CoDel-style adaptive admission, fast-reject NACKs,
    load-aware availability withdrawal) — installs per-server overload
    controllers for the run; an empty dict (the default) keeps every
    path bit-identical to pre-overload builds (DESIGN.md §12). Like the
    other param dicts, it participates in the result-cache key.

    ``dispatcher_params`` — :class:`repro.cluster.dispatcher.
    DispatcherPolicy` knobs (tier size, client→dispatcher assignment,
    failover suspicion, tier admission, per-dispatcher breakers, stale
    view lag) — routes every request through a fault-tolerant
    dispatcher tier instead of direct client→server selection; an empty
    dict (the default) keeps every path bit-identical to pre-tier
    builds (DESIGN.md §16). ``autoscaler_params`` — :class:`repro.
    cluster.autoscaler.AutoscalerPolicy` knobs (control interval,
    size bounds, shed/p95/utilization thresholds) — installs the
    closed-loop autoscaler, which requires the availability subsystem
    (scale actions actuate via publish/withdrawal). Both participate in
    the result-cache key.

    ``verify_params`` — :class:`repro.verify.InvariantOracle` knobs
    (``enabled``, ``check_interval``) — installs the inline invariant
    oracle (DESIGN.md §17). The oracle draws no randomness and
    schedules no events, so verify-enabled runs stay bit-identical
    across both exact engines; an empty dict (the default) keeps
    ``cluster.oracle`` as ``None`` and every code path bit-identical
    to pre-oracle builds.
    """

    policy: str = "polling"
    policy_params: dict[str, Any] = field(default_factory=dict)
    workload: str = "poisson_exp"
    workload_params: dict[str, Any] = field(default_factory=dict)
    load: float = 0.9
    n_servers: int = 16
    n_clients: int = 6
    n_requests: int = 20_000
    seed: int = 0
    model: str = "simulation"
    warmup_fraction: float = 0.1
    workers: int = 1
    server_speeds: Optional[tuple[float, ...]] = None
    overhead_params: dict[str, Any] = field(default_factory=dict)
    full_load_rho: Optional[float] = None
    label: str = ""
    engine: str = "heap"
    cluster_params: dict[str, Any] = field(default_factory=dict)
    chaos_params: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] = field(default_factory=dict)
    reliability_params: dict[str, Any] = field(default_factory=dict)
    overload_params: dict[str, Any] = field(default_factory=dict)
    dispatcher_params: dict[str, Any] = field(default_factory=dict)
    autoscaler_params: dict[str, Any] = field(default_factory=dict)
    verify_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.overhead_params and self.model != "prototype":
            raise ValueError(
                "overhead_params apply to model='prototype' only, "
                f"got model={self.model!r}"
            )
        for name in ("cluster_params", "overhead_params", *SUBSYSTEMS):
            params = getattr(self, name)
            if not params:
                continue
            unknown = set(params) - param_keys(name)
            if unknown:
                raise ValueError(
                    f"unknown {name} key(s): {sorted(unknown)} "
                    f"(allowed: {sorted(param_keys(name))})"
                )
        if not 0 < self.load:
            raise ValueError(f"load must be > 0, got {self.load}")
        if self.n_requests < 10:
            raise ValueError(f"n_requests must be >= 10, got {self.n_requests}")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.server_speeds is not None:
            if len(self.server_speeds) != self.n_servers:
                raise ValueError(
                    f"server_speeds has {len(self.server_speeds)} factors but "
                    f"n_servers is {self.n_servers} (one factor per server)"
                )
            if not all(v > 0 for v in self.server_speeds):
                raise ValueError(
                    f"server_speeds factors must be > 0, got {list(self.server_speeds)}"
                )

    def with_updates(self, **changes: Any) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)

    def describe(self) -> str:
        if self.label:
            return self.label
        params = ",".join(f"{k}={v}" for k, v in sorted(self.policy_params.items()))
        tags = "".join(
            row.tag for name, row in SUBSYSTEMS.items() if getattr(self, name)
        )
        return (
            f"{self.policy}({params}) {self.workload} load={self.load:.0%} "
            f"[{self.model}]{tags}"
        )

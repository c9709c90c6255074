"""Experiment configuration."""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, NamedTuple, Optional

from repro import locate

__all__ = ["INSTALL_ORDER", "SUBSYSTEMS", "SimulationConfig", "field_values", "json_default", "param_keys"]

_MODELS = ("simulation", "prototype")
_ENGINES = ("heap", "calendar", "fast")

#: ``cluster_params`` keys (kept JSON-native so cache keys survive an archive
#: round trip): the :class:`ServiceCluster` keywords, and the availability
#: switch with the ``availability_*`` knobs its ``install`` takes
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
    #: the cluster slot the live object sits on; its module's
    #: ``install(cluster, **knobs)`` (:data:`INSTALL_ORDER`) fills it
    attr: str
    #: ``SimulationConfig.describe()`` suffix
    tag: str
    #: why ``engine="fast"`` refuses it
    fast_refusal: str
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
    ),
    "telemetry": Subsystem(
        "repro.telemetry.collector:TelemetryCollector", "telemetry",
        "", "per-request span recording", mode="telemetry",
    ),
    "reliability_params": Subsystem(
        "repro.cluster.reliability:ReliabilityPolicy", "reliability",
        " +reliability", "timeouts/backoff/hedging",
        counters="reliability.counters", mode="reliability",
    ),
    "overload_params": Subsystem(
        "repro.cluster.overload:OverloadPolicy", "overload",
        " +overload", "admission control",
        counters="overload_counters", mode="overload",
    ),
    "dispatcher_params": Subsystem(
        "repro.cluster.dispatcher:DispatcherPolicy", "dispatchers",
        " +dispatchers", "dispatcher-tier routing",
        counters="dispatchers.counters", mode="dispatcher",
    ),
    "autoscaler_params": Subsystem(
        "repro.cluster.autoscaler:AutoscalerPolicy", "autoscaler",
        " +autoscale", "closed-loop scaling",
        counters="autoscaler.counters", mode="autoscaler",
    ),
    "verify_params": Subsystem(
        "repro.verify.oracle:InvariantOracle", "oracle",
        " +verify", "inline invariant oracle",
    ),
}

#: slot -> the ``install(cluster, **knobs)`` that fills it, in the one order
#: a cluster takes them; at ``workload`` the policy binds (to the dispatcher
#: agents) and the request stream loads. Availability publishes only for
#: servers the autoscaler leaves active, overload's withdrawal stops a
#: publisher, and chaos reads the workload's horizon.
INSTALL_ORDER = {
    "dispatchers": "repro.cluster.dispatcher:install",
    "autoscaler": "repro.cluster.autoscaler:install",
    "availability": "repro.cluster.availability:install",
    "overload": "repro.cluster.overload:install",
    "reliability": "repro.cluster.reliability:install",
    "workload": "",
    "chaos": "repro.cluster.failures:install",
    "telemetry": "repro.telemetry.collector:install",
    "oracle": "repro.verify.oracle:install",
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

    ``cluster_params`` forwards the lifecycle's :class:`ServiceCluster`
    keywords (request timeouts, retries, the static admission bound,
    queue recording) and switches on the soft-state availability
    subsystem (``availability``, with ``availability_refresh`` and
    ``availability_ttl`` for its install).

    Each :data:`SUBSYSTEMS` field — ``chaos_params`` (:class:`ChaosSpec`),
    ``telemetry``, ``reliability_params``, ``overload_params``,
    ``dispatcher_params``, ``autoscaler_params`` and ``verify_params``,
    DESIGN.md §9–§12, §16, §17 — holds the knobs its module's ``install``
    takes (:data:`INSTALL_ORDER`, run by
    :func:`repro.experiments.runner.assemble`). An empty dict (the
    default) installs nothing and keeps every path bit-identical to the
    paper's cluster; telemetry and the oracle draw no randomness and
    schedule no events, so they never change a result. The autoscaler
    requires availability, and so does a dispatcher ``view_lag``. Every
    params dict holds JSON-native scalars only and joins the result-cache
    key, so differently configured runs never alias each other's entries.
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
        if not 0 < self.load < math.inf:
            raise ValueError(f"load must be finite and > 0, got {self.load}")
        if self.n_requests < 10:
            raise ValueError(f"n_requests must be >= 10, got {self.n_requests}")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        params = self.policy_params
        if (
            self.model == "simulation"
            and self.policy == "polling"
            and isinstance(params, dict)
            and params.get("discard_slow")
        ):
            # Every reply lands one round trip after the polls go out, so a
            # deadline inside it lets the first poll sent decide. When every
            # server is polled the polls go out in server-id order and that
            # is server 0, for every request.
            from repro.net.latency import PAPER_NET

            timeout = params.get("discard_timeout")
            if isinstance(timeout, (int, float)) and timeout < PAPER_NET.udp_rtt:
                poll_size = params.get("poll_size")
                if poll_size is None:
                    owner = locate("repro.core.polling:RandomPollingPolicy")
                    poll_size = inspect.signature(owner).parameters["poll_size"].default
                if isinstance(poll_size, int) and poll_size >= self.n_servers:
                    raise ValueError(
                        f"polling with poll_size={poll_size} >= n_servers={self.n_servers} "
                        f"and discard_timeout={timeout} < udp_rtt={PAPER_NET.udp_rtt} "
                        "sends every request to server 0 under model='simulation' "
                        "(the first reply decides); lower poll_size or raise "
                        "discard_timeout"
                    )
        tier, cluster = self.dispatcher_params, self.cluster_params
        view_lag = tier.get("view_lag") if isinstance(tier, dict) else None
        if (
            isinstance(view_lag, (int, float))
            and view_lag > 0
            and not (isinstance(cluster, dict) and cluster.get("availability"))
        ):
            raise ValueError(
                f"dispatcher_params.view_lag={view_lag} needs "
                "cluster_params.availability=True (it delays soft-state "
                "updates into dispatcher views, and without availability "
                "there are none)"
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

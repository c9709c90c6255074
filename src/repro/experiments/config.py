"""Experiment configuration."""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["SimulationConfig", "param_keys"]

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
        "reselect_delay",
    }
)

#: config field -> (module, class) owning that field's knob names; a
#: dataclass answers through ``field_names()``, a plain class through its
#: constructor signature (minus the ``cluster`` it is attached to)
_PARAM_OWNERS = {
    "chaos_params": ("repro.cluster.failures", "ChaosSpec"),
    "telemetry": ("repro.telemetry.collector", "TelemetryCollector"),
    "reliability_params": ("repro.cluster.reliability", "ReliabilityPolicy"),
    "overload_params": ("repro.cluster.overload", "OverloadPolicy"),
    "dispatcher_params": ("repro.cluster.dispatcher", "DispatcherPolicy"),
    "autoscaler_params": ("repro.cluster.autoscaler", "AutoscalerPolicy"),
    "verify_params": ("repro.verify.oracle", "InvariantOracle"),
}


@functools.cache
def param_keys(field_name: str) -> frozenset:
    """The knob names a :class:`SimulationConfig` dict field accepts.

    Derived from the owning class on first use and cached. Callers ask
    only for a non-empty dict, so an all-off config imports none of the
    subsystem modules.
    """
    if field_name == "cluster_params":
        return _CLUSTER_PARAM_KEYS
    module, name = _PARAM_OWNERS[field_name]
    owner = getattr(importlib.import_module(module), name)
    if hasattr(owner, "field_names"):
        return owner.field_names()
    return frozenset(inspect.signature(owner).parameters) - {"cluster"}


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
    workload).

    ``engine`` selects the execution engine: "heap" and "calendar" are
    exact event-queue implementations producing bit-identical results
    (a pure performance knob), while "fast" is the numpy batch engine
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
        for name in ("cluster_params", *_PARAM_OWNERS):
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

    def with_updates(self, **changes: Any) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)

    def describe(self) -> str:
        if self.label:
            return self.label
        params = ",".join(f"{k}={v}" for k, v in sorted(self.policy_params.items()))
        chaos = " +chaos" if self.chaos_params else ""
        hardened = " +reliability" if self.reliability_params else ""
        shedding = " +overload" if self.overload_params else ""
        tier = " +dispatchers" if self.dispatcher_params else ""
        scaling = " +autoscale" if self.autoscaler_params else ""
        verify = " +verify" if self.verify_params else ""
        return (
            f"{self.policy}({params}) {self.workload} load={self.load:.0%} "
            f"[{self.model}]{chaos}{hardened}{shedding}{tier}{scaling}{verify}"
        )

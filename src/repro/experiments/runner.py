"""Build and run configured experiments, serially or in parallel.

Parallelism model (per the hpc-parallel guides): each configuration is
an independent, CPU-bound, pure-Python simulation, so sweeps fan out
over a ``ProcessPoolExecutor`` (threads would serialize on the GIL).
Determinism is preserved because every config carries its own seed and
all randomness flows through named substreams — results are identical
whether a sweep runs serially, in parallel, or reordered.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro import locate
from repro.core.registry import make_policy
from repro.experiments.config import (
    INSTALL_ORDER,
    SUBSYSTEMS,
    SimulationConfig,
    field_values,
    json_default,
)
from repro.workload.workloads import make_workload, request_stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import ClusterMetrics
    from repro.cluster.system import ServiceCluster
    from repro.experiments.cache import ResultCache
    from repro.prototype.overhead import PrototypeOverheadModel
    from repro.telemetry import TelemetryReport

__all__ = [
    "SimulationResult",
    "assemble",
    "auto_chunksize",
    "build_cluster",
    "run_simulation",
    "run_fast_simulation",
    "run_with_telemetry",
    "parallel_sweep",
]

#: process-local cache of full-load calibrations keyed by workload identity
_CALIBRATION_CACHE: dict[tuple, float] = {}

#: fixed seed for calibration probes — full load is a property of the
#: workload + overhead model, not of any particular experiment run
_CALIBRATION_SEED = 424242

#: counters exported by policies into SimulationResult.policy_counters
_POLICY_COUNTER_ATTRS = (
    "polls_sent",
    "replies_received",
    "replies_discarded",
    "timeouts_fired",
    "broadcasts_sent",
    "queries_served",
    "refreshes",
)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one configured run (times in seconds)."""

    config: SimulationConfig
    mean_response_time: float
    p50_response_time: float
    p90_response_time: float
    p99_response_time: float
    mean_poll_time: float
    n_measured: int
    n_failed: int
    nominal_rho: float
    wall_seconds: float
    events_executed: int
    message_counts: dict[str, int] = field(default_factory=dict)
    policy_counters: dict[str, int] = field(default_factory=dict)
    stolen_cpu: float = 0.0
    server_counts: tuple[int, ...] = ()
    p95_response_time: float = math.nan
    #: resilience counters from :func:`repro.cluster.resilience_counters`
    #: (empty for runs without a chaos injector)
    chaos_counters: dict[str, float] = field(default_factory=dict)
    #: staleness/span digest from
    #: :meth:`repro.telemetry.TelemetryCollector.summary` (empty for
    #: runs without telemetry; full spans/series live in the
    #: :class:`~repro.telemetry.TelemetryReport`, not here)
    telemetry_summary: dict[str, float] = field(default_factory=dict)

    def outcome(self) -> dict[str, str]:
        """Every field but ``config`` and ``wall_seconds`` as canonical
        JSON, by name: what the run produced, not how it was asked for
        or how long it took.

        Stricter than ``==`` on purpose: ``-0.0`` and ``0.0``, or ``1``
        and ``1.0``, encode differently, while NaN encodes as ``NaN``
        and so matches NaN.
        """
        import json

        return {
            name: json.dumps(value, sort_keys=True, default=json_default)
            for name, value in field_values(self).items()
            if name not in ("config", "wall_seconds")
        }

    def digest(self) -> str:
        """The one definition of "the same run": sha256 of
        :meth:`outcome`. Two results with equal digests agree on every
        outcome field, bit for bit."""
        import hashlib
        import json

        return hashlib.sha256(
            json.dumps(self.outcome(), sort_keys=True).encode()
        ).hexdigest()

    @property
    def mean_response_time_ms(self) -> float:
        return self.mean_response_time * 1e3

    @property
    def mean_poll_time_ms(self) -> float:
        return self.mean_poll_time * 1e3


def _resolve_nominal_rho(config: SimulationConfig, overhead) -> float:
    """Requested load level -> nominal per-server utilization."""
    if config.model == "simulation":
        return config.load
    if config.full_load_rho is not None:
        return config.load * config.full_load_rho
    return config.load * full_load_rho_for(config, overhead)


def full_load_rho_for(config: SimulationConfig, overhead=None) -> float:
    """Calibrated 100%-load nominal utilization for a config's workload.

    Cached per (workload, workload_params, overhead) within the process.
    """
    overhead = overhead or _overhead_for(config)
    key = (
        config.workload,
        tuple(sorted(config.workload_params.items())),
        overhead,
    )
    cached = _CALIBRATION_CACHE.get(key)
    if cached is None:
        workload = make_workload(config.workload, **config.workload_params)
        calibrate_full_load = locate("repro.prototype.calibration:calibrate_full_load")
        calibration = calibrate_full_load(workload, overhead, seed=_CALIBRATION_SEED)
        cached = calibration.nominal_rho_at_full_load
        _CALIBRATION_CACHE[key] = cached
    return cached


def _overhead_for(config: SimulationConfig) -> Optional[PrototypeOverheadModel]:
    if config.model != "prototype":
        return None
    return locate("repro.prototype.overhead:PrototypeOverheadModel")(**config.overhead_params)


def assemble(cluster, gaps: np.ndarray, services: np.ndarray, **knobs: dict):
    """Install into ``cluster`` each subsystem ``knobs`` names (slot -> the
    keyword arguments of its module's ``install``) in
    :data:`~repro.experiments.config.INSTALL_ORDER`, loading the request
    stream at its ``workload`` step; returns the cluster. The one way a
    subsystem gets in, so the order is written once."""
    slots = [slot for slot in INSTALL_ORDER if slot != "workload"]
    unknown = set(knobs) - set(slots)
    if unknown:
        raise ValueError(f"unknown subsystem(s) {sorted(unknown)}; expected some of {slots}")
    for slot, install in INSTALL_ORDER.items():
        if slot == "workload":
            cluster.load_workload(gaps, services)
        elif slot in knobs:
            locate(install)(cluster, **knobs[slot])
    return cluster


def build_cluster(config: SimulationConfig) -> tuple[ServiceCluster, float]:
    """Construct the cluster + workload for a config.

    Returns ``(cluster, nominal_rho)``; the workload is already loaded.
    """
    if config.engine == "fast":
        raise ValueError(
            "engine='fast' has no object cluster; use run_simulation() "
            "(which routes to repro.sim.fastpath) or pick an exact "
            "engine ('heap'/'calendar') for cluster-level access"
        )
    from repro.cluster.system import ServiceCluster

    overhead = _overhead_for(config)
    nominal_rho = _resolve_nominal_rho(config, overhead)
    gaps, services = request_stream(
        config.workload,
        config.workload_params,
        config.seed,
        config.n_requests,
        config.n_servers,
        nominal_rho,
    )
    params = config.cluster_params
    knobs = {row.attr: k for name, row in SUBSYSTEMS.items() if (k := getattr(config, name))}
    if params.get("availability"):
        knobs["availability"] = {
            key.removeprefix("availability_"): value
            for key, value in params.items()
            if key.startswith("availability_")
        }
    cluster = ServiceCluster(
        n_servers=config.n_servers,
        policy=make_policy(config.policy, **config.policy_params),
        seed=config.seed,
        n_clients=config.n_clients,
        overhead=overhead,
        workers=config.workers,
        server_speeds=list(config.server_speeds) if config.server_speeds else None,
        engine=config.engine,
        **{key: value for key, value in params.items() if not key.startswith("availability")},
    )
    assemble(cluster, gaps, services, **knobs)
    return cluster, nominal_rho


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run one configuration to completion and summarize.

    ``engine="fast"`` routes to the numpy batch engine
    (:mod:`repro.sim.fastpath`); configs it cannot represent raise
    :class:`~repro.sim.fastpath.FastpathUnsupportedError` — never a
    silent fallback to an exact engine.
    """
    if config.engine == "fast":
        return run_fast_simulation(config)
    started = time.perf_counter()
    cluster, nominal_rho = build_cluster(config)
    return _summarize_run(config, cluster, nominal_rho, started)


def run_fast_simulation(config: SimulationConfig) -> SimulationResult:
    """Run one config under the vectorized batch engine.

    The result carries the same summary fields as an exact-engine run;
    ``events_executed`` counts *batch ticks*, not per-object events, so
    throughput comparisons across engines should use requests/sec.
    """
    from repro.sim.fastpath import run_fastpath

    started = time.perf_counter()
    run = run_fastpath(config, record_occupancy=False)
    summary = run.metrics.summary(config.warmup_fraction)
    return SimulationResult(
        config=config,
        mean_response_time=summary["mean_response_time"],
        p50_response_time=summary["p50_response_time"],
        p90_response_time=summary["p90_response_time"],
        p99_response_time=summary["p99_response_time"],
        mean_poll_time=summary["mean_poll_time"],
        n_measured=summary["n_measured"],
        n_failed=summary["n_failed"],
        nominal_rho=run.nominal_rho,
        wall_seconds=time.perf_counter() - started,
        events_executed=run.ticks,
        message_counts=dict(run.message_counts),
        policy_counters=dict(run.policy_counters),
        stolen_cpu=0.0,
        server_counts=tuple(
            int(v)
            for v in run.metrics.server_counts(config.n_servers, config.warmup_fraction)
        ),
        p95_response_time=summary["p95_response_time"],
    )


def run_with_telemetry(
    config: SimulationConfig,
) -> tuple[SimulationResult, "TelemetryReport"]:
    """Run one configuration with telemetry and return the full report.

    A config without a ``telemetry`` block is opted in with the default
    collector settings; the simulation outcome is bit-identical to the
    telemetry-off run of the same config (telemetry only records).
    """
    if config.engine == "fast":
        raise ValueError(
            "telemetry requires an exact engine (heap/calendar); "
            "engine='fast' does not execute per-request lifecycles"
        )
    if not config.telemetry:
        config = config.with_updates(telemetry={"spans": True})
    started = time.perf_counter()
    cluster, nominal_rho = build_cluster(config)
    result = _summarize_run(config, cluster, nominal_rho, started)
    assert cluster.telemetry is not None
    return result, cluster.telemetry.report()


def _hardening_counters(cluster) -> dict[str, float]:
    """Counters of the installed subsystems for chaos-free runs (empty
    when none that has any is installed)."""
    counters: dict[str, float] = {}
    for row in SUBSYSTEMS.values():
        if row.counters and getattr(cluster, row.attr) is not None:
            counters.update(attrgetter(row.counters)(cluster)())
    return counters


def _summarize_run(
    config: SimulationConfig, cluster, nominal_rho: float, started: float
) -> SimulationResult:
    """Run a built cluster to completion and fold it into a result."""
    metrics: ClusterMetrics = cluster.run()
    summary = metrics.summary(config.warmup_fraction)
    counters = {
        name: getattr(cluster.policy, name)
        for name in _POLICY_COUNTER_ATTRS
        if hasattr(cluster.policy, name)
    }
    return SimulationResult(
        config=config,
        mean_response_time=summary["mean_response_time"],
        p50_response_time=summary["p50_response_time"],
        p90_response_time=summary["p90_response_time"],
        p99_response_time=summary["p99_response_time"],
        mean_poll_time=summary["mean_poll_time"],
        n_measured=summary["n_measured"],
        n_failed=summary["n_failed"],
        nominal_rho=nominal_rho,
        wall_seconds=time.perf_counter() - started,
        events_executed=cluster.sim.events_executed,
        message_counts={
            kind.value: count for kind, count in cluster.network.message_counts.items()
        },
        policy_counters=counters,
        stolen_cpu=cluster.total_stolen_cpu(),
        server_counts=tuple(
            int(v) for v in metrics.server_counts(config.n_servers, config.warmup_fraction)
        ),
        p95_response_time=summary["p95_response_time"],
        chaos_counters=(
            locate("repro.cluster.failures:resilience_counters")(cluster.chaos, metrics)
            if cluster.chaos is not None
            # Reliability/overload runs without a chaos injector still
            # surface their counters through the same channel; plain
            # runs keep the historical empty dict (bit-identical
            # archives).
            else _hardening_counters(cluster)
        ),
        telemetry_summary=(
            cluster.telemetry.summary() if cluster.telemetry is not None else {}
        ),
    )


def auto_chunksize(n_configs: int, max_workers: Optional[int] = None) -> int:
    """Pool chunksize balancing IPC overhead against load imbalance.

    ``len(configs) // (4 * workers)`` gives each worker ~4 chunks, so a
    straggler chunk costs at most ~25% of one worker's share while
    pickling overhead is amortized over the chunk.
    """
    workers = max_workers or os.cpu_count() or 1
    return max(1, n_configs // (4 * workers))


def prepare_configs(configs: Sequence[SimulationConfig]) -> list[SimulationConfig]:
    """Precompute calibrations so workers don't redo them.

    Prototype configs without a precomputed ``full_load_rho`` would
    redo the calibration bisection in every worker; resolve each one
    once here (memoized per workload in ``_CALIBRATION_CACHE``).
    """
    prepared: list[SimulationConfig] = []
    for config in configs:
        if config.model == "prototype" and config.full_load_rho is None:
            config = config.with_updates(full_load_rho=full_load_rho_for(config))
        prepared.append(config)
    return prepared


def parallel_sweep(
    configs: Sequence[SimulationConfig],
    max_workers: Optional[int] = None,
    parallel: bool = True,
    cache: Optional["ResultCache"] = None,
    engine: Optional[str] = None,
) -> list[SimulationResult]:
    """Run many configurations; results in input order.

    ``parallel=False`` (or a single config) runs serially — results are
    bit-identical either way.

    ``cache`` (a :class:`~repro.experiments.cache.ResultCache`) skips
    configs whose results are already on disk and writes back every
    fresh result; cached and fresh results are field-for-field
    identical, so enabling the cache never changes a sweep's output.

    ``engine`` overrides every config's execution engine for this sweep
    (``"heap"``/``"calendar"``/``"fast"``); ``None`` leaves configs
    as-is.
    """
    # executor imports this module, hence the call-time import
    from repro.experiments.executor import SweepExecutor

    with SweepExecutor(max_workers=max_workers, cache=cache, engine=engine) as pool:
        return pool.sweep(configs, parallel=parallel)

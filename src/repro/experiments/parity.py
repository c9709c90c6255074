"""Determinism harness: prove the engines order events identically.

The calendar queue (:mod:`repro.sim.calendar`) is only admissible as a
performance knob if it is *invisible* in the numbers: every simulation
must produce bit-identical metrics under either engine. This module
runs a config suite under both engines and compares each pair of
results by :meth:`SimulationResult.digest` — every outcome field, so
not the config (it differs in its ``engine`` tag) nor ``wall_seconds``
(wall-clock noise). A mismatch is reported field by field from the same
per-field encoding (:meth:`SimulationResult.outcome`).

``python -m repro parity`` runs the default suite — a miniature of the
paper's Figure 3 / Figure 4 grids (broadcast-interval and poll-size
sweeps over the three evaluation workloads) plus the cancel-heavy
timeout path — and prints a pass/fail report; it is also asserted in
``tests/experiments/test_engine_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_cluster, parallel_sweep

__all__ = [
    "EngineParityReport",
    "engine_parity",
    "parity_suite",
    "DistributionParityReport",
    "distribution_parity",
    "fastpath_suite",
    "MeanFieldCheckReport",
    "meanfield_check",
    "meanfield_suite",
]

def parity_suite(
    n_requests: int = 1_200, seed: int = 0, n_servers: int = 8
) -> list[SimulationConfig]:
    """A miniature fig3/fig4 config grid exercising every event pattern.

    Broadcast sweeps stress recurring timers, polling sweeps stress the
    request/reply chains, ``discard_slow`` and the prototype model
    stress cancellation and stolen-CPU rescheduling, and the ideal
    baseline stresses the bare dispatch path.
    """
    configs: list[SimulationConfig] = []
    for workload in ("medium_grain", "poisson_exp", "fine_grain"):
        base = SimulationConfig(
            workload=workload,
            n_servers=n_servers,
            n_requests=n_requests,
            seed=seed,
        )
        for load in (0.5, 0.9):
            # fig3 column: broadcast at two announcement frequencies + ideal
            configs.append(base.with_updates(load=load, policy="ideal"))
            for interval in (0.01, 0.1):
                configs.append(
                    base.with_updates(
                        load=load,
                        policy="broadcast",
                        policy_params={"mean_interval": interval},
                    )
                )
            # fig4 column: random + polling at two poll sizes
            configs.append(base.with_updates(load=load, policy="random"))
            for poll_size in (2, 4):
                configs.append(
                    base.with_updates(
                        load=load,
                        policy="polling",
                        policy_params={"poll_size": poll_size},
                    )
                )
        # timeout/cancel-heavy path: discarding slow polls, prototype model
        configs.append(
            base.with_updates(
                load=0.9,
                model="prototype",
                policy="polling",
                policy_params={"poll_size": 3, "discard_slow": True},
            )
        )
    # chaos path: fault injection (loss/dup/jitter, stragglers, storms,
    # a partition) over availability + timeout/retry machinery — every
    # random draw and recovery event must land identically per engine
    from repro.experiments.chaos import chaos_cluster_params, chaos_params_for

    chaos_base = SimulationConfig(
        workload="poisson_exp",
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
        load=0.7,
        cluster_params=chaos_cluster_params(max_retries=60),
        chaos_params=chaos_params_for(1.0, n_servers),
    )
    configs.append(
        chaos_base.with_updates(
            policy="polling", policy_params={"poll_size": 3, "discard_slow": True}
        )
    )
    configs.append(
        chaos_base.with_updates(
            policy="broadcast", policy_params={"mean_interval": 0.05}
        )
    )
    # reliability-hardened chaos path: deadline budgets, jittered
    # backoff, retry budgets, hedged requests, and circuit breakers all
    # active at once — hedge timers, backoff re-selects, and clone
    # cancellations must order identically per engine
    from repro.experiments.chaos import hardened_reliability_params

    configs.append(
        chaos_base.with_updates(
            policy="polling",
            policy_params={"poll_size": 3, "discard_slow": True},
            reliability_params={
                **hardened_reliability_params(),
                "deadline": 2.0,
                "backoff_base": 0.002,
                "retry_budget": 500.0,
            },
        )
    )
    # overload path: adaptive shedding with jittered probe admits,
    # fast-reject NACK round trips, and availability withdraw/rejoin
    # churn at 2x offered load — REJECT deliveries, shed-jitter draws,
    # and publisher stop/start must order identically per engine
    from repro.experiments.overload import (
        overload_cluster_params,
        overload_control_params,
    )

    overload_base = SimulationConfig(
        workload="mmpp_exp",
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
        load=2.0,
        cluster_params=overload_cluster_params(),
        overload_params=overload_control_params(),
    )
    configs.append(overload_base.with_updates(policy="random"))
    # overload x reliability: REJECT-driven breaker signals and hedge
    # exclusion on top of the shedding machinery
    configs.append(
        overload_base.with_updates(
            policy="polling",
            policy_params={"poll_size": 3, "discard_slow": True},
            reliability_params={
                **hardened_reliability_params(),
                "backoff_base": 0.002,
            },
        )
    )
    # dispatcher tier + autoscaler path: tier forward/backhaul routing,
    # failover suspicion, dispatcher crash storms, and closed-loop
    # scale up/down actuating through publish/withdrawal — chaos draws,
    # control-loop timers, and drain completions must order identically
    # per engine
    from repro.experiments.autoscale import (
        autoscale_cluster_params,
        autoscale_dispatcher_params,
        autoscale_scaling_params,
        autoscale_workload_params,
    )

    autoscale_base = SimulationConfig(
        workload="mmpp_exp",
        workload_params=autoscale_workload_params(),
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
        load=2.0,
        cluster_params=autoscale_cluster_params(),
        overload_params=overload_control_params(),
        dispatcher_params=autoscale_dispatcher_params(),
        autoscaler_params=autoscale_scaling_params(n_servers),
    )
    configs.append(
        autoscale_base.with_updates(
            policy="random",
            chaos_params={
                "dispatcher_storms": 2,
                "dispatcher_storm_size": 1,
                "dispatcher_storm_frac": 0.25,
            },
        )
    )
    # tier admission + per-dispatcher breakers + stale mapping views on
    # a selector policy with per-dispatcher local state
    configs.append(
        autoscale_base.with_updates(
            policy="least_connections",
            dispatcher_params={
                **autoscale_dispatcher_params(),
                "view_lag": 0.15,
                "admit_sojourn_target": 0.2,
                "breaker_threshold": 8,
                "breaker_cooldown": 0.5,
            },
        )
    )
    # invariant oracle enabled: the oracle chains onto the trace hook
    # and scans every few events but draws no randomness and schedules
    # nothing, so these two must stay bit-identical across engines like
    # any other config — one chaos+reliability cell, one full-stack cell
    configs.append(
        chaos_base.with_updates(
            policy="polling",
            policy_params={"poll_size": 3, "discard_slow": True},
            reliability_params=hardened_reliability_params(),
            verify_params={"enabled": True, "check_interval": 4},
        )
    )
    configs.append(
        autoscale_base.with_updates(
            policy="least_connections",
            verify_params={"enabled": True, "check_interval": 8},
        )
    )
    return configs


@dataclass
class EngineParityReport:
    """Outcome of an engine parity run."""

    n_configs: int
    mismatches: list[tuple[SimulationConfig, str, object, object]]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            return (
                f"engine parity: OK — {self.n_configs} configs bit-identical "
                f"across heap and calendar (equal digests of every outcome field)"
            )
        lines = [
            f"engine parity: FAILED — {len(self.mismatches)} mismatching "
            f"fields over {self.n_configs} configs"
        ]
        for config, name, heap_value, calendar_value in self.mismatches[:20]:
            lines.append(
                f"  {config.describe()}: {name} heap={heap_value!r} "
                f"calendar={calendar_value!r}"
            )
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)


def engine_parity(
    configs: Optional[Sequence[SimulationConfig]] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
) -> EngineParityReport:
    """Run ``configs`` under both engines and compare their digests;
    each mismatching outcome field is one entry of the report."""
    configs = list(configs) if configs is not None else parity_suite()
    heap_results = parallel_sweep(
        configs, parallel=parallel, max_workers=max_workers, engine="heap"
    )
    calendar_results = parallel_sweep(
        configs, parallel=parallel, max_workers=max_workers, engine="calendar"
    )
    mismatches = []
    for config, heap_result, calendar_result in zip(
        configs, heap_results, calendar_results
    ):
        if heap_result.digest() == calendar_result.digest():
            continue
        heap_fields, calendar_fields = heap_result.outcome(), calendar_result.outcome()
        mismatches.extend(
            (config, name, getattr(heap_result, name), getattr(calendar_result, name))
            for name in heap_fields
            if heap_fields[name] != calendar_fields[name]
        )
    return EngineParityReport(n_configs=len(configs), mismatches=mismatches)


# ----------------------------------------------------------------------
# Tier 2: distribution-level parity (fast path vs heap engine, small N)
# ----------------------------------------------------------------------
#
# The fast path (repro.sim.fastpath) is *approximate by construction* —
# selections inside one batch tick share a server-state snapshot — so
# bit-identity is the wrong bar. Instead each supported policy is run
# under both engines on the same workload stream and compared at the
# distribution level: a two-sample KS statistic over post-warmup
# response times, a KS-style distance over time-weighted queue-length
# occupancy, and the relative gap in mean response time.


def fastpath_suite(
    n_requests: int = 4_000, seed: int = 0, n_servers: int = 8
) -> list[SimulationConfig]:
    """Small-N configs covering every fast-path policy at two loads."""
    configs: list[SimulationConfig] = []
    base = SimulationConfig(
        workload="poisson_exp",
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
    )
    for load in (0.5, 0.9):
        configs.append(base.with_updates(load=load, policy="random"))
        for poll_size in (2, 4):
            configs.append(
                base.with_updates(
                    load=load,
                    policy="polling",
                    policy_params={"poll_size": poll_size},
                )
            )
        configs.append(
            base.with_updates(
                load=load, policy="broadcast", policy_params={"mean_interval": 0.01}
            )
        )
        configs.append(
            base.with_updates(
                load=load, policy="stale_jsq", policy_params={"update_interval": 0.02}
            )
        )
    return configs


def heap_distribution(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Post-warmup response-time samples and normalized queue-length
    occupancy for a config run under the exact heap engine."""
    from repro.sim.monitor import step_occupancy

    instrumented = config.with_updates(
        engine="heap",
        cluster_params={**config.cluster_params, "record_server_queues": True},
    )
    cluster, _ = build_cluster(instrumented)
    metrics = cluster.run()
    mask = metrics.measurement_slice(config.warmup_fraction)
    responses = metrics.response_time[mask]
    warmup_index = int(config.n_requests * config.warmup_fraction)
    t0 = float(metrics.arrival_time[min(warmup_index, config.n_requests - 1)])
    t1 = float(metrics.arrival_time[-1])
    histograms = [
        step_occupancy(server.queue_recorder, t0, t1) for server in cluster.servers
    ]
    size = max(h.size for h in histograms)
    occupancy = np.zeros(size)
    for h in histograms:
        occupancy[: h.size] += h
    return responses, occupancy / occupancy.sum()


def fast_distribution(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fast-path counterpart of :func:`heap_distribution`."""
    from repro.sim.fastpath import run_fastpath

    run = run_fastpath(config.with_updates(engine="fast"))
    mask = run.metrics.measurement_slice(config.warmup_fraction)
    assert run.occupancy is not None
    return run.metrics.response_time[mask], run.occupancy


@dataclass
class DistributionParityCell:
    """One config's fast-vs-heap distribution comparison."""

    config: SimulationConfig
    ks_response: float
    occupancy_distance: float
    mean_rel_error: float
    n_samples: int


@dataclass
class DistributionParityReport:
    """Outcome of the tier-2 (distribution-level) parity run."""

    cells: list[DistributionParityCell]
    ks_threshold: float
    occupancy_threshold: float
    mean_tolerance: float

    def failures(self) -> list[DistributionParityCell]:
        return [
            cell
            for cell in self.cells
            if cell.ks_response > self.ks_threshold
            or cell.occupancy_distance > self.occupancy_threshold
            or cell.mean_rel_error > self.mean_tolerance
        ]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def render(self) -> str:
        lines = [
            "distribution parity (fast vs heap): "
            + ("OK" if self.ok else "FAILED")
            + f" — {len(self.cells)} configs "
            f"(KS<={self.ks_threshold}, occupancy<={self.occupancy_threshold}, "
            f"mean within {self.mean_tolerance:.0%})"
        ]
        failing = set(id(cell) for cell in self.failures())
        for cell in self.cells:
            marker = "FAIL" if id(cell) in failing else "ok"
            lines.append(
                f"  [{marker:>4}] {cell.config.describe()}: "
                f"ks={cell.ks_response:.4f} occ={cell.occupancy_distance:.4f} "
                f"mean_err={cell.mean_rel_error:.2%} n={cell.n_samples}"
            )
        return "\n".join(lines)


def distribution_parity(
    configs: Optional[Sequence[SimulationConfig]] = None,
    ks_threshold: float = 0.08,
    occupancy_threshold: float = 0.08,
    mean_tolerance: float = 0.05,
) -> DistributionParityReport:
    """Run the tier-2 comparison over ``configs`` (default suite)."""
    from repro.analysis.stats import distribution_distance, ks_statistic

    configs = list(configs) if configs is not None else fastpath_suite()
    cells: list[DistributionParityCell] = []
    for config in configs:
        heap_responses, heap_occupancy = heap_distribution(config)
        fast_responses, fast_occupancy = fast_distribution(config)
        heap_mean = float(heap_responses.mean())
        fast_mean = float(fast_responses.mean())
        cells.append(
            DistributionParityCell(
                config=config,
                ks_response=ks_statistic(heap_responses, fast_responses),
                occupancy_distance=distribution_distance(
                    heap_occupancy, fast_occupancy
                ),
                mean_rel_error=abs(fast_mean - heap_mean) / heap_mean,
                n_samples=int(min(heap_responses.size, fast_responses.size)),
            )
        )
    return DistributionParityReport(
        cells=cells,
        ks_threshold=ks_threshold,
        occupancy_threshold=occupancy_threshold,
        mean_tolerance=mean_tolerance,
    )


# ----------------------------------------------------------------------
# Tier 3: mean-field cross-check (fast path vs N -> infinity theory)
# ----------------------------------------------------------------------


def meanfield_suite(
    n_servers: int = 1_000,
    n_requests: int = 400_000,
    seed: int = 0,
    load: float = 0.8,
) -> list[SimulationConfig]:
    """Large-N fast-path cells with a supermarket-model limit.

    ``warmup_fraction=0.25`` discards the fill-up transient: at load
    0.8 the measurement window spans ~15 relaxation times, so the
    time-average sits within ~1% of stationarity — well inside the 5%
    acceptance band.
    """
    base = SimulationConfig(
        workload="poisson_exp",
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
        load=load,
        warmup_fraction=0.25,
        engine="fast",
    )
    return [
        base.with_updates(policy="random"),
        base.with_updates(policy="polling", policy_params={"poll_size": 2}),
    ]


@dataclass
class MeanFieldCheckCell:
    """One large-N cell against its mean-field prediction."""

    config: SimulationConfig
    predicted: float
    simulated: float

    @property
    def rel_error(self) -> float:
        return abs(self.simulated - self.predicted) / self.predicted


@dataclass
class MeanFieldCheckReport:
    """Outcome of the tier-3 (mean-field) validation run."""

    cells: list[MeanFieldCheckCell]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(cell.rel_error <= self.tolerance for cell in self.cells)

    def render(self) -> str:
        lines = [
            "mean-field check (fast path vs N->inf): "
            + ("OK" if self.ok else "FAILED")
            + f" — {len(self.cells)} cells (tolerance {self.tolerance:.0%})"
        ]
        for cell in self.cells:
            marker = "ok" if cell.rel_error <= self.tolerance else "FAIL"
            lines.append(
                f"  [{marker:>4}] {cell.config.describe()} N={cell.config.n_servers}: "
                f"sim={cell.simulated * 1e3:.3f}ms "
                f"pred={cell.predicted * 1e3:.3f}ms "
                f"err={cell.rel_error:.2%}"
            )
        return "\n".join(lines)


def meanfield_check(
    configs: Optional[Sequence[SimulationConfig]] = None,
    tolerance: float = 0.05,
) -> MeanFieldCheckReport:
    """Run large-N fast-path cells against the mean-field solver."""
    from repro.analysis.meanfield import meanfield_prediction
    from repro.experiments.runner import run_simulation

    configs = list(configs) if configs is not None else meanfield_suite()
    cells: list[MeanFieldCheckCell] = []
    for config in configs:
        prediction = meanfield_prediction(config)
        result = run_simulation(config)
        cells.append(
            MeanFieldCheckCell(
                config=config,
                predicted=prediction.mean_response_time,
                simulated=result.mean_response_time,
            )
        )
    return MeanFieldCheckReport(cells=cells, tolerance=tolerance)

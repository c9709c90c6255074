"""Drivers regenerating every table and figure of the paper.

Each driver returns a :class:`FigureData` whose ``table`` holds the
series the paper plots and whose ``render()`` prints them. The
benchmarks call these with default (publication) sizes; tests call them
with small ``n_requests`` for speed — the *shape* claims are asserted
in ``tests/experiments/`` and ``benchmarks/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.analysis.inaccuracy import (
    eq1_upperbound,
    fifo_queue_length_steps,
    measure_inaccuracy,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    SimulationResult,
    full_load_rho_for,
    parallel_sweep,
    run_simulation,
)
from repro.prototype.profiling import PollProfile, profile_poll_delays
from repro.sim.rng import RngHub
from repro.workload.synthesis import (
    FINE_GRAIN_SPEC,
    MEDIUM_GRAIN_SPEC,
    synthesize_trace,
)
from repro.workload.workloads import make_workload

__all__ = [
    "FigureData",
    "PAPER_WORKLOADS",
    "figure2_inaccuracy",
    "figure3_broadcast",
    "figure4_pollsize",
    "figure6_pollsize",
    "message_scaling_section24",
    "poll_profile_section32",
    "table1_traces",
    "table2_discard",
]

#: the paper's three evaluation workloads, in its panel order (A, B, C)
PAPER_WORKLOADS = ("medium_grain", "poisson_exp", "fine_grain")


@dataclass
class FigureData:
    """A regenerated table/figure: identifying name, data, and extras."""

    name: str
    table: ResultTable
    extras: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return f"== {self.name} ==\n{self.table.render()}"


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------

def table1_traces(n: Optional[int] = None, seed: int = 0) -> FigureData:
    """Table 1: statistics of the (synthesized) evaluation traces."""
    hub = RngHub(seed)
    table = ResultTable(
        [
            "workload",
            "accesses",
            "arrival_mean_ms",
            "arrival_std_ms",
            "service_mean_ms",
            "service_std_ms",
        ]
    )
    for spec in (MEDIUM_GRAIN_SPEC, FINE_GRAIN_SPEC):
        trace = synthesize_trace(spec, n=n, rng=hub.stream(f"table1.{spec.name}"))
        stats = trace.stats()
        table.add(
            workload=spec.name,
            accesses=stats.n_accesses,
            arrival_mean_ms=stats.arrival_interval_mean * 1e3,
            arrival_std_ms=stats.arrival_interval_std * 1e3,
            service_mean_ms=stats.service_time_mean * 1e3,
            service_std_ms=stats.service_time_std * 1e3,
        )
    return FigureData(
        "Table 1: trace statistics (synthesized to the published moments)",
        table,
        extras={"specs": (MEDIUM_GRAIN_SPEC, FINE_GRAIN_SPEC)},
    )


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------

def figure2_inaccuracy(
    loads: Sequence[float] = (0.9, 0.5),
    workloads: Sequence[str] = PAPER_WORKLOADS,
    delays_normalized: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0),
    n_requests: int = 300_000,
    n_samples: int = 30_000,
    seed: int = 0,
) -> FigureData:
    """Figure 2: load-index inaccuracy vs. dissemination delay, 1 server.

    ``delays_normalized`` are in units of the workload's mean service
    time (the paper's x-axis). The Poisson/Exp upper bound (Eq. 1) is
    attached per load level.
    """
    hub = RngHub(seed)
    delays_normalized = np.asarray(delays_normalized, dtype=np.float64)
    table = ResultTable(["load", "workload", "delay_normalized", "inaccuracy"])
    for load in loads:
        for name in workloads:
            workload = make_workload(name)
            rng = hub.fork(f"fig2.{name}.{load}")
            gaps, services = workload.generate(rng.stream("workload"), n_requests)
            mean_service = float(services.mean())
            gaps = gaps * (mean_service / load / float(gaps.mean()))
            arrivals = np.cumsum(gaps)
            times, queue = fifo_queue_length_steps(arrivals, services)
            delays = delays_normalized * mean_service
            values = measure_inaccuracy(
                times, queue, delays, rng.stream("sampling"), n_samples=n_samples
            )
            for delay_norm, value in zip(delays_normalized, values):
                table.add(
                    load=load,
                    workload=workload.name,
                    delay_normalized=float(delay_norm),
                    inaccuracy=float(value),
                )
    return FigureData(
        "Figure 2: load-index inaccuracy vs delay (1 server)",
        table,
        extras={"upperbound": {load: eq1_upperbound(load) for load in loads}},
    )


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------

def figure3_broadcast(
    intervals: Sequence[float] = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    loads: Sequence[float] = (0.9, 0.5),
    workloads: Sequence[str] = PAPER_WORKLOADS,
    n_requests: int = 20_000,
    n_servers: int = 16,
    seed: int = 0,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    cache=None,
    engine: Optional[str] = None,
) -> FigureData:
    """Figure 3: broadcast policy, response time normalized to IDEAL.

    16 servers; Poisson/Exp uses the paper's 50 ms mean service time.
    ``cache``/``engine`` pass through to :func:`parallel_sweep`.
    """
    configs: list[SimulationConfig] = []
    keys: list[tuple] = []
    for load in loads:
        for name in workloads:
            base = SimulationConfig(
                workload=name,
                load=load,
                n_servers=n_servers,
                n_requests=n_requests,
                seed=seed,
                model="simulation",
            )
            configs.append(base.with_updates(policy="ideal"))
            keys.append((load, name, "ideal"))
            for interval in intervals:
                configs.append(
                    base.with_updates(
                        policy="broadcast",
                        policy_params={"mean_interval": float(interval)},
                    )
                )
                keys.append((load, name, interval))
    results = parallel_sweep(
        configs, max_workers=max_workers, parallel=parallel, cache=cache, engine=engine
    )
    by_key = dict(zip(keys, results))
    table = ResultTable(
        ["load", "workload", "interval_ms", "response_ms", "normalized_to_ideal"]
    )
    for load in loads:
        for name in workloads:
            ideal = by_key[(load, name, "ideal")]
            for interval in intervals:
                result = by_key[(load, name, interval)]
                table.add(
                    load=load,
                    workload=name,
                    interval_ms=float(interval) * 1e3,
                    response_ms=result.mean_response_time_ms,
                    normalized_to_ideal=result.mean_response_time
                    / ideal.mean_response_time,
                )
    return FigureData(
        "Figure 3: impact of broadcast frequency (16 servers)",
        table,
        extras={"ideal": {(l, w): by_key[(l, w, "ideal")] for l in loads for w in workloads}},
    )


# ----------------------------------------------------------------------
# Figures 4 and 6
# ----------------------------------------------------------------------

def figure4_pollsize(
    loads: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
    workloads: Sequence[str] = PAPER_WORKLOADS,
    poll_sizes: Sequence[int] = (2, 3, 4, 8),
    n_requests: int = 20_000,
    n_servers: int = 16,
    seed: int = 0,
    model: str = "simulation",
    parallel: bool = True,
    max_workers: Optional[int] = None,
    cache=None,
    engine: Optional[str] = None,
) -> FigureData:
    """Figure 4 (simulation) / Figure 6 (prototype): impact of poll size.

    Policies: random, polling with each poll size, and the ideal
    baseline — the free oracle in the simulation model, the centralized
    load-index manager in the prototype model (exactly as in the paper).
    """
    ideal_policy = "ideal" if model == "simulation" else "manager"
    policy_specs: list[tuple[str, str, dict]] = [("random", "random", {})]
    policy_specs += [
        (f"poll-{d}", "polling", {"poll_size": int(d)}) for d in poll_sizes
    ]
    policy_specs.append(("ideal", ideal_policy, {}))

    configs: list[SimulationConfig] = []
    keys: list[tuple] = []
    for name in workloads:
        base = SimulationConfig(
            workload=name,
            n_servers=n_servers,
            n_requests=n_requests,
            seed=seed,
            model=model,
        )
        if model == "prototype":
            base = base.with_updates(full_load_rho=full_load_rho_for(base))
        for load in loads:
            for label, policy, params in policy_specs:
                configs.append(
                    base.with_updates(load=load, policy=policy, policy_params=params)
                )
                keys.append((name, load, label))
    results = parallel_sweep(
        configs, max_workers=max_workers, parallel=parallel, cache=cache, engine=engine
    )
    table = ResultTable(["workload", "load", "policy", "response_ms", "poll_ms"])
    for key, result in zip(keys, results):
        name, load, label = key
        table.add(
            workload=name,
            load=load,
            policy=label,
            response_ms=result.mean_response_time_ms,
            poll_ms=result.mean_poll_time_ms,
        )
    figure = "Figure 4 (simulation)" if model == "simulation" else "Figure 6 (prototype)"
    return FigureData(
        f"{figure}: impact of poll size ({n_servers} servers)",
        table,
        extras={"results": dict(zip(keys, results)), "model": model},
    )


def figure6_pollsize(**kwargs) -> FigureData:
    """Figure 6: the poll-size sweep on the prototype-fidelity model."""
    kwargs.setdefault("model", "prototype")
    return figure4_pollsize(**kwargs)


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------

def table2_discard(
    workloads: Sequence[str] = PAPER_WORKLOADS,
    load: float = 0.9,
    poll_size: int = 3,
    n_requests: int = 20_000,
    n_servers: int = 16,
    seed: int = 0,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    cache=None,
    engine: Optional[str] = None,
) -> FigureData:
    """Table 2: improvement of discarding slow-responding polls.

    Prototype model, poll size 3, servers 90% busy. Reports, per
    workload: original vs. optimized mean response time and mean polling
    time, the overall improvement, and the improvement excluding polling
    time (the paper's second column — isolating the stale-information
    effect from the raw polling-time saving).
    """
    configs: list[SimulationConfig] = []
    keys: list[tuple] = []
    for name in workloads:
        base = SimulationConfig(
            workload=name,
            load=load,
            n_servers=n_servers,
            n_requests=n_requests,
            seed=seed,
            model="prototype",
        )
        base = base.with_updates(full_load_rho=full_load_rho_for(base))
        configs.append(
            base.with_updates(policy="polling", policy_params={"poll_size": poll_size})
        )
        keys.append((name, "original"))
        configs.append(
            base.with_updates(
                policy="polling",
                policy_params={"poll_size": poll_size, "discard_slow": True},
            )
        )
        keys.append((name, "optimized"))
    results = parallel_sweep(
        configs, max_workers=max_workers, parallel=parallel, cache=cache, engine=engine
    )
    by_key = dict(zip(keys, results))
    table = ResultTable(
        [
            "workload",
            "original_ms",
            "optimized_ms",
            "improvement",
            "orig_poll_ms",
            "opt_poll_ms",
            "improvement_excl_polling",
        ]
    )
    for name in workloads:
        original = by_key[(name, "original")]
        optimized = by_key[(name, "optimized")]
        improvement = 1.0 - optimized.mean_response_time / original.mean_response_time
        excl_orig = original.mean_response_time - original.mean_poll_time
        excl_opt = optimized.mean_response_time - optimized.mean_poll_time
        table.add(
            workload=name,
            original_ms=original.mean_response_time_ms,
            optimized_ms=optimized.mean_response_time_ms,
            improvement=improvement,
            orig_poll_ms=original.mean_poll_time_ms,
            opt_poll_ms=optimized.mean_poll_time_ms,
            improvement_excl_polling=1.0 - excl_opt / excl_orig,
        )
    return FigureData(
        f"Table 2: discarding slow-responding polls (d={poll_size}, {load:.0%} busy)",
        table,
        extras={"results": by_key},
    )


# ----------------------------------------------------------------------
# §3.2 poll profile and §2.4 message scaling
# ----------------------------------------------------------------------

def poll_profile_section32(
    workload: str = "fine_grain",
    load: float = 0.9,
    poll_size: int = 3,
    n_requests: int = 20_000,
    n_servers: int = 16,
    seed: int = 0,
) -> tuple[PollProfile, SimulationResult]:
    """§3.2 profile: fraction of polls slower than 10 ms / 20 ms."""
    from repro.experiments.runner import _summarize_run, build_cluster

    config = SimulationConfig(
        workload=workload,
        load=load,
        policy="polling",
        policy_params={"poll_size": poll_size},
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
        model="prototype",
    )
    config = config.with_updates(full_load_rho=full_load_rho_for(config))
    started = time.perf_counter()
    cluster, nominal_rho = build_cluster(config)
    tap = profile_poll_delays(cluster)
    result = _summarize_run(config, cluster, nominal_rho, started)
    return tap.profile(), result


def message_scaling_section24(
    workload: str = "poisson_exp",
    load: float = 0.9,
    client_counts: Sequence[int] = (2, 4, 6),
    broadcast_interval: float = 0.05,
    poll_size: int = 2,
    n_requests: int = 10_000,
    n_servers: int = 16,
    seed: int = 0,
    parallel: bool = True,
    cache=None,
    engine: Optional[str] = None,
) -> FigureData:
    """§2.4: messages per request — broadcast scales with the number of
    clients (fan-out), polling does not."""
    configs: list[SimulationConfig] = []
    keys: list[tuple] = []
    for n_clients in client_counts:
        base = SimulationConfig(
            workload=workload,
            load=load,
            n_servers=n_servers,
            n_clients=int(n_clients),
            n_requests=n_requests,
            seed=seed,
        )
        configs.append(
            base.with_updates(
                policy="broadcast", policy_params={"mean_interval": broadcast_interval}
            )
        )
        keys.append((n_clients, "broadcast"))
        configs.append(
            base.with_updates(policy="polling", policy_params={"poll_size": poll_size})
        )
        keys.append((n_clients, "polling"))
    results = parallel_sweep(configs, parallel=parallel, cache=cache, engine=engine)
    table = ResultTable(
        ["n_clients", "policy", "control_messages_per_request", "response_ms"]
    )
    for key, result in zip(keys, results):
        n_clients, policy = key
        counts = result.message_counts
        control = sum(
            counts.get(kind, 0)
            for kind in ("broadcast", "poll", "poll_reply", "publish")
        )
        table.add(
            n_clients=n_clients,
            policy=policy,
            control_messages_per_request=control / result.config.n_requests,
            response_ms=result.mean_response_time_ms,
        )
    return FigureData(
        "§2.4: control-message scaling (broadcast vs polling)",
        table,
        extras={"broadcast_interval": broadcast_interval, "poll_size": poll_size},
    )

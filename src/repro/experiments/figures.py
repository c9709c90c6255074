"""Every table and figure of the paper.

The paper's four sweeps are builtin scenarios
(:data:`~repro.experiments.scenario.BUILTIN_SCENARIOS`), each a spec
builder plus a :class:`~repro.experiments.scenario.ReportLayout`:
:func:`figure3_spec` (``fig3``), :func:`figure4_spec` (``fig4``),
:func:`figure6_spec` (``fig6``), :func:`table2_spec` (``table2``) and
:func:`message_scaling_spec` (``messages``). ``spec.run(...)`` runs one
like any campaign — result cache, process pool, ``--oracle``, archive —
and its report renders the paper's table.

What is not a sweep stays a function returning a :class:`FigureData`:
Table 1's trace statistics, Figure 2's inaccuracy curve, and the §3.2
poll profile. The paper's *shape* claims are asserted once, as the
rows of ``benchmarks/claims.py``, over these drivers at their default
(publication) sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

import numpy as np

from repro.analysis.inaccuracy import (
    eq1_upperbound,
    fifo_queue_length_steps,
    measure_inaccuracy,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.results import ResultTable
from repro.experiments.runner import SimulationResult, prepare_configs
from repro.experiments.scenario import (
    PolicyAxis,
    ReportLayout,
    ScaleAxis,
    ScenarioSpec,
    WorkloadAxis,
    axis,
    mean_ms,
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
    "FIGURE3_LAYOUT",
    "FIGURE4_LAYOUT",
    "FigureData",
    "MESSAGES_LAYOUT",
    "PAPER_WORKLOADS",
    "TABLE2_LAYOUT",
    "figure2_inaccuracy",
    "figure3_spec",
    "figure4_spec",
    "figure6_spec",
    "message_scaling_spec",
    "poll_profile_section32",
    "table1_traces",
    "table2_spec",
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
# the paper's sweeps: builtin scenarios (Fig. 3, Figs. 4/6, Table 2, §2.4)
# ----------------------------------------------------------------------
# Each is a layout (columns, base cells, row order) and a builder that
# titles it for the run.

def _workloads(names: Sequence[str]) -> tuple[WorkloadAxis, ...]:
    return tuple(WorkloadAxis(name, name) for name in names)


def _figure_spec(name: str, layout: ReportLayout, title: str, **axes: Any) -> ScenarioSpec:
    """A paper figure's grid under ``layout`` with this run's ``title``.
    Figure cells carry no label: the label is part of a cell's cache key,
    and unlabelled keys are the ones existing result caches hold."""
    layout = replace(layout, title=title)
    return ScenarioSpec(name=name, label_format="", layout=layout, **axes)


def _interval_ms(cell, result, base) -> float:
    return result.config.policy_params["mean_interval"] * 1e3


def _normalized(cell, result, base) -> float:
    return result.mean_response_time / base.mean_response_time


#: Fig. 3's table: every broadcast cell over the ``ideal`` cell (the
#: first policy) of its workload and load
FIGURE3_LAYOUT = ReportLayout(
    columns=(
        ("load", axis("load")),
        ("workload", axis("workload")),
        ("interval_ms", _interval_ms),
        ("response_ms", mean_ms),
        ("normalized_to_ideal", _normalized),
    ),
    base_axis="policy",
    show_base_rows=False,
    row_order=("load", "workload", "policy"),
)


def figure3_spec(
    intervals: Sequence[float] = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    loads: Sequence[float] = (0.9, 0.5),
    workloads: Sequence[str] = PAPER_WORKLOADS,
    n_requests: int = 20_000,
    n_servers: int = 16,
    seed: int = 0,
) -> ScenarioSpec:
    """Figure 3: broadcast policy, response time normalized to IDEAL.

    16 servers; Poisson/Exp uses the paper's 50 ms mean service time.
    """
    policies = (PolicyAxis("ideal", "ideal"),) + tuple(
        PolicyAxis(f"broadcast-{interval * 1e3:g}ms", "broadcast",
                   {"mean_interval": float(interval)})
        for interval in intervals
    )
    return _figure_spec(
        "fig3", FIGURE3_LAYOUT,
        f"Figure 3: impact of broadcast frequency ({n_servers} servers)",
        policies=policies, workloads=_workloads(workloads), loads=loads,
        n_servers=n_servers, n_requests=n_requests, seed=seed,
        config_overrides={"model": "simulation"},
    )


def _poll_ms(cell, result, base) -> float:
    return result.mean_poll_time_ms


#: Figs. 4 and 6: one row per (workload, load, policy) cell
FIGURE4_LAYOUT = ReportLayout(
    columns=(
        ("workload", axis("workload")),
        ("load", axis("load")),
        ("policy", axis("policy")),
        ("response_ms", mean_ms),
        ("poll_ms", _poll_ms),
    ),
    row_order=("workload", "load", "policy"),
)


def figure4_spec(
    loads: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
    workloads: Sequence[str] = PAPER_WORKLOADS,
    poll_sizes: Sequence[int] = (2, 3, 4, 8),
    n_requests: int = 20_000,
    n_servers: int = 16,
    seed: int = 0,
    model: str = "simulation",
) -> ScenarioSpec:
    """Figure 4 (simulation) / Figure 6 (prototype): impact of poll size.

    Policies: random, polling with each poll size, and the ideal
    baseline — the free oracle in the simulation model, the centralized
    load-index manager in the prototype model (exactly as in the paper).
    A prototype cell's ``full_load_rho`` is calibrated per workload by
    the sweep (:func:`~repro.experiments.runner.prepare_configs`).
    """
    policies = (
        PolicyAxis("random", "random"),
        *(PolicyAxis(f"poll-{d}", "polling", {"poll_size": int(d)}) for d in poll_sizes),
        PolicyAxis("ideal", "ideal" if model == "simulation" else "manager"),
    )
    name, figure = (
        ("fig4", "Figure 4 (simulation)") if model == "simulation"
        else ("fig6", "Figure 6 (prototype)")
    )
    return _figure_spec(
        name, FIGURE4_LAYOUT, f"{figure}: impact of poll size ({n_servers} servers)",
        policies=policies, workloads=_workloads(workloads), loads=loads,
        n_servers=n_servers, n_requests=n_requests, seed=seed,
        config_overrides={"model": model},
    )


def figure6_spec(n_requests: int = 15_000, **kwargs: Any) -> ScenarioSpec:
    """Figure 6: the poll-size sweep on the prototype-fidelity model."""
    kwargs.setdefault("model", "prototype")
    return figure4_spec(n_requests=n_requests, **kwargs)


def _excl_polling(result) -> float:
    return result.mean_response_time - result.mean_poll_time


#: Table 2: one row per workload, the ``optimized`` cell against the
#: ``original`` one (the first policy)
TABLE2_LAYOUT = ReportLayout(
    columns=(
        ("workload", axis("workload")),
        ("original_ms", lambda cell, result, base: base.mean_response_time_ms),
        ("optimized_ms", mean_ms),
        ("improvement", lambda cell, result, base: 1.0 - _normalized(cell, result, base)),
        ("orig_poll_ms", lambda cell, result, base: base.mean_poll_time_ms),
        ("opt_poll_ms", _poll_ms),
        ("improvement_excl_polling",
         lambda cell, result, base: 1.0 - _excl_polling(result) / _excl_polling(base)),
    ),
    base_axis="policy",
    show_base_rows=False,
)


def table2_spec(
    workloads: Sequence[str] = PAPER_WORKLOADS,
    load: float = 0.9,
    poll_size: int = 3,
    n_requests: int = 25_000,
    n_servers: int = 16,
    seed: int = 0,
) -> ScenarioSpec:
    """Table 2: improvement of discarding slow-responding polls.

    Prototype model, poll size 3, servers 90% busy. Reports, per
    workload: original vs. optimized mean response time and mean polling
    time, the overall improvement, and the improvement excluding polling
    time (the paper's second column — isolating the stale-information
    effect from the raw polling-time saving).
    """
    return _figure_spec(
        "table2", TABLE2_LAYOUT,
        f"Table 2: discarding slow-responding polls (d={poll_size}, {load:.0%} busy)",
        policies=(
            PolicyAxis("original", "polling", {"poll_size": poll_size}),
            PolicyAxis("optimized", "polling",
                       {"poll_size": poll_size, "discard_slow": True}),
        ),
        workloads=_workloads(workloads), loads=(load,),
        n_servers=n_servers, n_requests=n_requests, seed=seed,
        config_overrides={"model": "prototype"},
    )


def _control_per_request(cell, result, base) -> float:
    """Load-information messages (§2.4's count) per offered request."""
    counts = result.message_counts
    control = sum(
        counts.get(kind, 0) for kind in ("broadcast", "poll", "poll_reply", "publish")
    )
    return control / result.config.n_requests


#: §2.4: one row per (client count, policy) cell
MESSAGES_LAYOUT = ReportLayout(
    columns=(
        ("n_clients", lambda cell, result, base: result.config.n_clients),
        ("policy", axis("policy")),
        ("control_messages_per_request", _control_per_request),
        ("response_ms", mean_ms),
    ),
    row_order=("scale", "policy"),
)


def message_scaling_spec(
    workload: str = "poisson_exp",
    load: float = 0.9,
    client_counts: Sequence[int] = (2, 4, 6),
    broadcast_interval: float = 0.05,
    poll_size: int = 2,
    n_requests: int = 10_000,
    n_servers: int = 16,
    seed: int = 0,
) -> ScenarioSpec:
    """§2.4: messages per request — broadcast scales with the number of
    clients (fan-out), polling does not. The client counts are the
    scale axis."""
    return _figure_spec(
        "messages", MESSAGES_LAYOUT,
        "§2.4: control-message scaling (broadcast vs polling)",
        policies=(
            PolicyAxis("broadcast", "broadcast", {"mean_interval": broadcast_interval}),
            PolicyAxis("polling", "polling", {"poll_size": poll_size}),
        ),
        workloads=_workloads((workload,)), loads=(load,),
        scales=tuple(ScaleAxis(f"{n}c", n_clients=int(n)) for n in client_counts),
        n_servers=n_servers, n_requests=n_requests, seed=seed,
    )


# ----------------------------------------------------------------------
# §3.2 poll profile
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
    [config] = prepare_configs([config])
    started = time.perf_counter()
    cluster, nominal_rho = build_cluster(config)
    tap = profile_poll_delays(cluster)
    result = _summarize_run(config, cluster, nominal_rho, started)
    return tap.profile(), result

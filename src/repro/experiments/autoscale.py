"""Autoscale campaign: goodput vs provisioning cost past saturation.

The overload campaign (:mod:`repro.experiments.overload`) showed what
admission control buys when the pool size is *fixed*. This campaign
asks the complementary capacity question: how much of a statically
provisioned worst-case pool does a closed-loop autoscaler
(:mod:`repro.cluster.autoscaler`) actually need — and what does the
answer cost in goodput? Every cell routes through the fault-tolerant
dispatcher tier (:mod:`repro.cluster.dispatcher`) with failover
assignment, and the fault axis injects *dispatcher* crash storms so the
comparison holds up under control-plane failures, not just happy-path
load.

Two modes run the same 0.8×–3× MMPP offered-load grid with identical
arrival schedules, both on top of the overload subsystem's adaptive
admission (past saturation an unprotected pool melts into retry
ping-pong either way — the capacity question is only meaningful on the
hardened baseline):

- **static** — the dispatcher tier in front of the full worst-case
  pool (every server published for the whole run);
- **autoscaled** — the same tier plus the autoscaler, which starts at
  the minimum pool and adds/removes servers from telemetry signals
  (shed fraction, p95 sojourn, demand), actuating purely through
  soft-state publish/withdrawal.

The report's headline metric is **goodput per provisioned server** —
completed requests divided by the time-mean number of *active* servers
(the full pool size for the static leg). The autoscaled leg wins the
efficiency axis whenever it tracks demand with a smaller mean pool
without giving up the goodput the static leg achieves.

Like every campaign, this is a builtin scenario:
:func:`autoscale_scenario_spec` returns the grid with
:data:`AUTOSCALE_LAYOUT` attached and ``spec.run(...)`` runs it.
Configs are ordinary :class:`SimulationConfig` objects (tier knobs in
``dispatcher_params``, scaling knobs in ``autoscaler_params``), so
cells hit the content-addressed result cache, archive in the standard
format, and run bit-identically under either exact event engine.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.experiments.overload import overload_control_params
from repro.experiments.scenario import (
    FaultAxis,
    ModeAxis,
    PolicyAxis,
    ReportLayout,
    ScenarioSpec,
    WorkloadAxis,
    axis,
    counter,
    failed,
    goodput_pct,
    p95_ms,
)

__all__ = [
    "AUTOSCALE_LAYOUT",
    "DEFAULT_AUTOSCALE_LOADS",
    "DEFAULT_AUTOSCALE_POLICIES",
    "DISPATCHER_FAULTS",
    "STATIC_VS_AUTOSCALED",
    "autoscale_cluster_params",
    "autoscale_dispatcher_params",
    "autoscale_scaling_params",
    "autoscale_scenario_spec",
    "autoscale_workload_params",
]

#: offered-load grid shared with the overload campaign: one point below
#: saturation (where the autoscaler should shrink the pool) and three
#: past it (where it must grow back to the full pool under pressure)
DEFAULT_AUTOSCALE_LOADS: tuple[float, ...] = (0.8, 1.2, 2.0, 3.0)

#: (label, policy, policy_params) triples: the no-information baseline,
#: the paper's recommended polling configuration, and the two modern
#: low-overhead baselines (JIQ and client-local least-connections) —
#: the latter two exercise the per-dispatcher selector state the tier
#: introduces
DEFAULT_AUTOSCALE_POLICIES: tuple[tuple[str, str, dict], ...] = (
    ("random", "random", {}),
    ("polling-3", "polling", {"poll_size": 3, "discard_slow": True}),
    ("jiq", "jiq", {}),
    ("least-conn", "least_connections", {}),
)


def autoscale_dispatcher_params() -> dict[str, Any]:
    """Canonical dispatcher-tier knobs for the campaign: a 3-dispatcher
    tier with failover assignment, so a crashed dispatcher costs one
    attempt timeout per affected client rather than the whole run."""
    return {
        "count": 3,
        "assignment": "failover",
        "suspect_cooldown": 0.5,
    }


def autoscale_scaling_params(n_servers: int = 16) -> dict[str, Any]:
    """Canonical :class:`~repro.cluster.autoscaler.AutoscalerPolicy`
    knobs: start at a quarter of the worst-case pool, grow four servers
    at a time when more than 2% of offered work fails or sheds (or the
    window p95 blows past the attempt timeout's headroom), shrink two
    at a time through clean low-demand windows.
    """
    return {
        "interval": 0.1,
        "min_servers": max(1, n_servers // 4),
        "max_servers": n_servers,
        "shed_high": 0.02,
        # The latency trigger matters more than the shed trigger here:
        # an under-provisioned pool *melts* (queues past the 300 ms
        # attempt timeout, requests retried rather than failed) long
        # before terminal failures show up in the window.
        "p95_high": 0.25,
        # Parking is self-limiting (demand is measured against the
        # *current* active pool), so a generous utilization ceiling and
        # a short cooldown let the controller actually reach the lull
        # floor inside an MMPP calm phase instead of trailing it.
        "util_low": 0.65,
        "step_up": 4,
        "step_down": 2,
        "cooldown": 0.1,
    }


def autoscale_workload_params() -> dict[str, Any]:
    """MMPP shape for the campaign: phases long enough for the 100 ms
    control loop to track (the stock ``sojourn=1.0`` rescales to ~30 ms
    phases at campaign size — pure noise to the controller) and lulls
    deep enough that parking servers is actually the right call."""
    return {"sojourn": 40.0, "burst_ratio": 6.0}


#: the two-mode axis: the statically provisioned worst-case pool and
#: the closed-loop autoscaled pool, both behind the same dispatcher
#: tier and fed the same arrival schedules
STATIC_VS_AUTOSCALED: tuple[tuple[str, dict], ...] = (
    ("static", {}),
    ("autoscaled", autoscale_scaling_params()),
)

#: dispatcher-failure intensity axis: D=0 is the zero-fault spec (the
#: resilience-counter channel stays populated), D=1 crashes two
#: dispatchers (storm clamps so one always survives) for a quarter of
#: the run each
DISPATCHER_FAULTS: tuple[tuple[str, dict, float], ...] = (
    ("D=0", {"loss": 0.0}, 0.0),
    (
        "D=1",
        {
            "dispatcher_storms": 2,
            "dispatcher_storm_size": 1,
            "dispatcher_storm_frac": 0.25,
        },
        1.0,
    ),
)


def autoscale_cluster_params(
    request_timeout: float = 0.3,
    max_retries: int = 5,
    server_max_queue: int = 64,
    refresh: float = 0.2,
    ttl: float = 0.6,
) -> dict[str, Any]:
    """Cluster knobs every autoscale run needs: the availability
    subsystem (both the autoscaler and graceful scale-down actuate
    through it), client-side timeout/retry with headroom for
    dispatcher failover, and the static admission bound."""
    return {
        "availability": True,
        "availability_refresh": float(refresh),
        "availability_ttl": float(ttl),
        "request_timeout": float(request_timeout),
        "max_retries": int(max_retries),
        "server_max_queue": int(server_max_queue),
    }


def _mean_active(cell, result, base) -> float:
    """Time-mean published pool size (the full pool for a static leg)."""
    return float(
        result.chaos_counters.get("autoscale_mean_active", result.config.n_servers)
    )


def _goodput_per_server(cell, result, base) -> float:
    """Completed requests per time-mean active server: the static leg
    is charged its full pool, the autoscaled leg only what the
    controller actually kept published."""
    completed = result.config.n_requests - result.n_failed
    return completed / max(_mean_active(cell, result, base), 1e-12)


def _comparison_line(baseline, cell, base, row) -> str:
    return (
        f"{cell.mode} vs {baseline} | {cell.policy} load={cell.load:g}x {cell.fault}: "
        f"goodput {base['goodput_pct']:.1f}% -> "
        f"{row['goodput_pct']:.1f}%, "
        f"servers {base['mean_active']:.1f} -> "
        f"{row['mean_active']:.1f}, "
        f"goodput/server {base['goodput_per_server']:.1f} -> "
        f"{row['goodput_per_server']:.1f}"
    )


#: the provisioning report: one row per (mode, policy, load, fault) cell
AUTOSCALE_LAYOUT = ReportLayout(
    title="Autoscale campaign: goodput vs provisioning cost",
    columns=(
        ("mode", axis("mode")),
        ("policy", axis("policy")),
        ("load", axis("load")),
        ("fault", axis("fault")),
        ("goodput_pct", goodput_pct),
        ("p95_ms", p95_ms),
        ("mean_active", _mean_active),
        ("goodput_per_server", _goodput_per_server),
        ("failed", failed),
        ("timeouts", counter("request_timeouts_fired")),
        ("failovers", counter("dispatcher_failovers")),
        ("ups", counter("autoscale_ups")),
        ("downs", counter("autoscale_downs")),
    ),
    comparison_heading="Autoscaling (identical arrival schedules)",
    comparison_line=_comparison_line,
)


def autoscale_scenario_spec(
    policies: Sequence[tuple[str, str, dict]] = DEFAULT_AUTOSCALE_POLICIES,
    offered_loads: Sequence[float] = DEFAULT_AUTOSCALE_LOADS,
    workload: str = "mmpp_exp",
    workload_params: Optional[dict[str, Any]] = None,
    n_servers: int = 16,
    n_requests: int = 4_000,
    seed: int = 0,
    cluster_params: Optional[dict[str, Any]] = None,
    scaling_modes: Optional[Sequence[tuple[str, dict]]] = None,
    dispatcher_params: Optional[dict[str, Any]] = None,
    faults: Sequence[tuple[str, dict, float]] = DISPATCHER_FAULTS,
    quick: bool = False,
) -> ScenarioSpec:
    """The autoscale campaign's grid as a declarative scenario spec.

    Both modes carry the overload subsystem's adaptive admission
    (:func:`~repro.experiments.overload.overload_control_params`):
    past saturation an unprotected pool melts into retry ping-pong
    whether or not it autoscales, so the capacity comparison is only
    meaningful on top of the hardened baseline. ``quick`` trims the
    grid (two policies, two loads) for the <60s
    ``make autoscale-smoke`` path while keeping both modes and both
    dispatcher-fault intensities.
    """
    if scaling_modes is None:
        scaling_modes = (
            ("static", {}),
            ("autoscaled", autoscale_scaling_params(n_servers)),
        )
    tier = (
        dispatcher_params
        if dispatcher_params is not None
        else autoscale_dispatcher_params()
    )
    params = (
        cluster_params if cluster_params is not None else autoscale_cluster_params()
    )
    shape = (
        workload_params
        if workload_params is not None
        else (autoscale_workload_params() if workload == "mmpp_exp" else {})
    )
    admission = overload_control_params()
    policies = tuple(policies)
    offered_loads = tuple(float(v) for v in offered_loads)
    if quick:
        policies = policies[:2]
        offered_loads = (0.8, 2.0)
    return ScenarioSpec(
        name="autoscale",
        policies=tuple(
            PolicyAxis(label, policy, dict(p)) for label, policy, p in policies
        ),
        workloads=(WorkloadAxis(workload, workload, dict(shape)),),
        loads=offered_loads,
        modes=tuple(
            ModeAxis(
                mode_label,
                overload=dict(admission),
                dispatcher=dict(tier),
                autoscaler=dict(scaling),
            )
            for mode_label, scaling in scaling_modes
        ),
        faults=tuple(
            FaultAxis(label, dict(chaos), value=value)
            for label, chaos, value in faults
        ),
        n_servers=n_servers,
        n_requests=n_requests,
        seed=seed,
        cluster_params=dict(params),
        label_format="autoscale {policy} L={load:g}x {mode} {fault}",
        layout=AUTOSCALE_LAYOUT,
    )

"""Loopback orchestration + the sim-vs-real comparison for ``repro drive``.

``run_loopback`` spins up N :class:`~repro.live.server.LiveServer`
nodes and one :class:`~repro.live.client.LiveCluster` drive agent on
one :class:`~repro.live.clock.WallClock` — one ``select`` loop over
``127.0.0.1`` UDP sockets — and drives the **same workload
arrays** the simulator would generate for the same config (same
``RngHub`` ``"workload"`` substream, same mean-based rescale) — so a
calibrated :func:`~repro.experiments.runner.run_simulation` of the
identical :class:`~repro.experiments.config.SimulationConfig` is an
apples-to-apples baseline.

Sizing note (single event loop = one CPU): in ``spin`` mode service
work burns real CPU on the shared loop, so the *aggregate* utilization
``n_servers x load`` must stay well below 1 — the defaults
(4 servers x 0.15) keep it at 0.6. The poll-size degradation does not
depend on that headroom: with poll size ``d`` the client waits for all
``d`` replies, each of which can land behind a service spin slice or a
``poll_spin`` handling burn, so the poll phase is a max over ``d``
contended round trips — the paper's §4.1 fine-grain overhead, which a
pure DES model shows none of.

Every entry point takes a hard ``time_limit``, past which the loop
raises ``TimeoutError`` — a live run must never hang a test suite or CI.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.registry import make_policy
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import assemble, run_simulation
from repro.live.client import LiveCluster
from repro.live.clock import WallClock
from repro.live.server import LiveServer
from repro.sim.rng import RngHub
from repro.workload.workloads import request_stream

__all__ = [
    "LiveRunConfig",
    "LiveRunResult",
    "DriveComparison",
    "generate_workload",
    "run_loopback",
    "drive_comparison",
    "render_comparison_table",
]

#: policies whose context needs stay inside the LiveCluster surface
#: (anything needing the sim's broadcast channel / manager node is out)
SUPPORTED_POLICY_PREFIXES = ("random", "polling")


@dataclass(frozen=True)
class LiveRunConfig:
    """One loopback run. Field semantics mirror ``SimulationConfig``
    where they overlap, so the comparison baseline is the same config."""

    policy: str = "polling"
    policy_params: Dict[str, Any] = field(default_factory=dict)
    workload: str = "poisson_exp"
    workload_params: Dict[str, Any] = field(default_factory=lambda: {"mean_service": 0.01})
    load: float = 0.15
    n_servers: int = 4
    n_clients: int = 6
    n_requests: int = 240
    seed: int = 0
    warmup_fraction: float = 0.1
    mode: str = "spin"
    poll_spin: float = 0.0003
    workers: int = 1
    request_timeout: Optional[float] = 1.0
    max_retries: int = 5
    server_max_queue: Optional[int] = None
    reliability_params: Dict[str, Any] = field(default_factory=dict)
    overload_params: Dict[str, Any] = field(default_factory=dict)
    availability: bool = False
    availability_refresh: float = 0.5
    availability_ttl: float = 3.0
    telemetry: bool = False
    sample_interval: float = 0.05
    time_limit: float = 60.0

    def sim_config(self) -> SimulationConfig:
        """The calibrated simulation baseline of this live run: the same
        config, with every lifecycle knob the live cluster and servers
        take forwarded as ``cluster_params``."""
        cluster_params = {
            "request_timeout": self.request_timeout,
            "max_retries": self.max_retries,
            "server_max_queue": self.server_max_queue,
            "availability": self.availability,
            "availability_refresh": self.availability_refresh,
            "availability_ttl": self.availability_ttl,
        }
        return SimulationConfig(
            policy=self.policy,
            policy_params=dict(self.policy_params),
            workload=self.workload,
            workload_params=dict(self.workload_params),
            load=self.load,
            n_servers=self.n_servers,
            n_clients=self.n_clients,
            n_requests=self.n_requests,
            seed=self.seed,
            model="simulation",
            warmup_fraction=self.warmup_fraction,
            workers=self.workers,
            reliability_params=dict(self.reliability_params),
            overload_params=dict(self.overload_params),
            cluster_params={k: v for k, v in cluster_params.items() if v is not None},
            label=f"sim:{self.policy}",
        )


@dataclass
class LiveRunResult:
    """Outcome of one loopback run."""

    config: LiveRunConfig
    summary: Dict[str, float]
    wall_seconds: float
    resilience_counters: Dict[str, float]
    server_counters: List[Dict[str, float]]
    policy_counters: Dict[str, int]
    #: epoch (``time.time``-based) arrival timestamps + service times,
    #: for trace recording through the replay normalization path
    arrival_epochs: np.ndarray = field(default_factory=lambda: np.empty(0))
    service_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    telemetry_report: Any = None


def generate_workload(cfg: LiveRunConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Exactly the workload arrays ``build_cluster`` produces for
    :meth:`LiveRunConfig.sim_config`: both call ``request_stream``."""
    return request_stream(
        cfg.workload, cfg.workload_params, cfg.seed, cfg.n_requests, cfg.n_servers, cfg.load
    )


def _policy_counters(policy) -> Dict[str, int]:
    from repro.experiments.runner import _POLICY_COUNTER_ATTRS

    return {
        name: int(getattr(policy, name))
        for name in _POLICY_COUNTER_ATTRS
        if hasattr(policy, name)
    }


def run_loopback(cfg: LiveRunConfig) -> LiveRunResult:
    """Run one loopback drive on its own clock, hard-bounded by ``time_limit``."""
    if not cfg.policy.startswith(SUPPORTED_POLICY_PREFIXES):
        raise ValueError(
            f"policy {cfg.policy!r} is not supported by the live runtime "
            f"(supported families: {SUPPORTED_POLICY_PREFIXES})"
        )
    if cfg.n_servers * cfg.load > 0.85 and cfg.mode == "spin":
        raise ValueError(
            f"spin mode over-commits the loopback CPU: n_servers*load = "
            f"{cfg.n_servers * cfg.load:.2f} must stay <= 0.85 "
            "(one event loop is one CPU; lower load or use mode='sleep')"
        )
    clock = WallClock()
    hub = RngHub(cfg.seed)

    overload_policy = None
    if cfg.overload_params:
        from repro.cluster.overload import OverloadPolicy

        overload_policy = OverloadPolicy(**cfg.overload_params)
    started = _time.perf_counter()
    try:
        servers = [
            LiveServer(
                i, clock, workers=cfg.workers, mode=cfg.mode, poll_spin=cfg.poll_spin,
                max_queue=cfg.server_max_queue, overload=overload_policy,
                publish_interval=(cfg.availability_refresh if cfg.availability else None),
                rng=hub.stream(f"live.server.{i}"),
            )
            for i in range(cfg.n_servers)
        ]
        policy = make_policy(cfg.policy, **cfg.policy_params)
        cluster = LiveCluster(
            {s.node_id: s.address for s in servers}, policy, clock, seed=cfg.seed,
            n_clients=cfg.n_clients, request_timeout=cfg.request_timeout,
            max_retries=cfg.max_retries,
            availability=cfg.availability, availability_ttl=cfg.availability_ttl,
            workers_per_server=cfg.workers,
        )
        gaps, services = generate_workload(cfg)
        knobs = {"reliability": cfg.reliability_params} if cfg.reliability_params else {}
        if cfg.telemetry:
            knobs["telemetry"] = {"sample_interval": cfg.sample_interval}
        assemble(cluster, gaps, services, **knobs)

        epoch_at_run_start = _time.time()
        metrics = cluster.run(cfg.time_limit)

        report = None
        if cluster.telemetry is not None:
            report = cluster.telemetry.report(end_time=clock.now)
        arrivals = np.cumsum(gaps)
        return LiveRunResult(
            config=cfg,
            summary=metrics.summary(cfg.warmup_fraction),
            wall_seconds=_time.perf_counter() - started,
            resilience_counters=cluster.resilience_counters(),
            server_counters=[s.counters() for s in servers],
            policy_counters=_policy_counters(policy),
            arrival_epochs=epoch_at_run_start + arrivals,
            service_times=services.copy(),
            telemetry_report=report,
        )
    finally:
        clock.close()


# ----------------------------------------------------------------------
# sim-vs-real comparison (the headline `repro drive` experiment)
# ----------------------------------------------------------------------
@dataclass
class DriveComparison:
    """Sim-vs-real rows across poll sizes (plus the random baseline)."""

    rows: List[Dict[str, float]]
    config: LiveRunConfig

    def qualitative_degradation(self) -> Optional[float]:
        """Live p50 at the largest poll size / live p50 at the smallest —
        the paper's poll-size-8 signature is this ratio rising in the
        live runs while the sim rows stay flat-or-improving."""
        polls = [r for r in self.rows if r.get("poll_size", 0) > 0]
        if len(polls) < 2:
            return None
        lo = min(polls, key=lambda r: r["poll_size"])
        hi = max(polls, key=lambda r: r["poll_size"])
        if not math.isfinite(lo["live_p50_ms"]) or lo["live_p50_ms"] <= 0:
            return None
        return hi["live_p50_ms"] / lo["live_p50_ms"]


def drive_comparison(
    base: LiveRunConfig,
    poll_sizes: Sequence[int] = (2, 4, 8),
    compare_sim: bool = True,
) -> DriveComparison:
    """Run the poll-size ladder live, and (optionally) the calibrated
    simulation of each identical config; one row per poll size."""
    rows: List[Dict[str, float]] = []
    for d in poll_sizes:
        cfg = replace(
            base,
            policy="polling",
            policy_params={**base.policy_params, "poll_size": int(d)},
        )
        live = run_loopback(cfg)
        row: Dict[str, float] = {
            "poll_size": float(d),
            "live_p50_ms": live.summary["p50_response_time"] * 1e3,
            "live_p95_ms": live.summary["p95_response_time"] * 1e3,
            "live_poll_ms": live.summary["mean_poll_time"] * 1e3,
            "live_failed": float(live.summary["n_failed"]),
            "live_wall_s": live.wall_seconds,
        }
        if compare_sim:
            sim = run_simulation(cfg.sim_config())
            row.update(
                {
                    "sim_p50_ms": sim.p50_response_time * 1e3,
                    "sim_p95_ms": sim.p95_response_time * 1e3,
                    "sim_poll_ms": sim.mean_poll_time * 1e3,
                    "delta_p50_pct": _delta_pct(
                        row["live_p50_ms"], sim.p50_response_time * 1e3
                    ),
                    "delta_p95_pct": _delta_pct(
                        row["live_p95_ms"], sim.p95_response_time * 1e3
                    ),
                }
            )
        rows.append(row)
    return DriveComparison(rows=rows, config=base)


def _delta_pct(live_ms: float, sim_ms: float) -> float:
    if not math.isfinite(sim_ms) or sim_ms == 0.0:
        return math.nan
    return 100.0 * (live_ms - sim_ms) / sim_ms


def render_comparison_table(comparison: DriveComparison) -> str:
    """Fixed-width sim-vs-real table (same style as the campaign reports)."""
    rows = comparison.rows
    has_sim = rows and "sim_p50_ms" in rows[0]
    headers = ["d", "live p50", "live p95", "live poll"]
    if has_sim:
        headers += ["sim p50", "sim p95", "sim poll", "Δp50%", "Δp95%"]
    headers += ["failed"]
    lines = []
    for row in rows:
        cells = [
            f"{int(row['poll_size'])}",
            f"{row['live_p50_ms']:.2f}ms",
            f"{row['live_p95_ms']:.2f}ms",
            f"{row['live_poll_ms']:.2f}ms",
        ]
        if has_sim:
            cells += [
                f"{row['sim_p50_ms']:.2f}ms",
                f"{row['sim_p95_ms']:.2f}ms",
                f"{row['sim_poll_ms']:.2f}ms",
                f"{row['delta_p50_pct']:+.0f}%",
                f"{row['delta_p95_pct']:+.0f}%",
            ]
        cells += [f"{int(row['live_failed'])}"]
        lines.append(cells)
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in lines)) if lines else len(headers[i])
        for i in range(len(headers))
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for line in lines:
        out.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    ratio = comparison.qualitative_degradation()
    if ratio is not None:
        out.append(
            f"live p50 degradation, largest vs smallest poll size: {ratio:.2f}x "
            "(sim shows no such penalty — §4.1 polling overhead is real)"
        )
    return "\n".join(out)

"""The suite's metric and workload tables — the single source of names.

``BENCHMARK.json`` at the repository root restates the three tables
below (name/unit/better/bound only — the driver's schema has no room
for the rest); ``test_suite.py`` checks the two agree, and the README
tables are the same rows in prose.

Host time and simulated time are never mixed: every metric here is
*host* time, on the reference host of :mod:`harness`, unless its unit
is ``count``/``share``/``ratio`` or its description says "simulated".
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: package under ``src/repro/`` the number belongs to
    layer: str
    #: workload(s) whose traced run measures it (it reads 0 elsewhere)
    home: tuple[str, ...]
    #: end-to-end metric it should move, and on which workload
    moves: str


EXACT_CORE = "exact_core"
BROADCAST_FANOUT = "broadcast_fanout"
HARDENED_STACK = "hardened_stack"
FAST_SCALE = "fast_scale"
CAMPAIGN_SWEEP = "campaign_sweep"
LIVE_LOOPBACK = "live_loopback"

WORKLOADS = (
    Workload(
        EXACT_CORE,
        "the paper's own cell: heap engine, N=16, every subsystem off; the should-not-move "
        "workload for subsystem changes and the judge of a lifecycle seam's cost",
    ),
    Workload(
        BROADCAST_FANOUT,
        "heap broadcast(10ms) at N=100: 45 events per request, the request path is <10% of "
        "events, so a fan-out optimisation shows here and must not move exact_core",
    ),
    Workload(
        HARDENED_STACK,
        "all seven optional subsystems on under chaos: the is-not-None guards and the "
        "reliability/overload hot paths are the work, the scheduler is not",
    ),
    Workload(
        FAST_SCALE,
        "numpy fast engine at N=1000, four policies: no event loop at all; broadcast is over "
        "half of the unit, so the fast-engine fan-out lead is claimable here",
    ),
    Workload(
        CAMPAIGN_SWEEP,
        "composed scenario through expand, process pool, result cache, report and archive: "
        "tiny cells, so cluster construction and executor overhead dominate",
    ),
    Workload(
        LIVE_LOOPBACK,
        "real asyncio UDP on 127.0.0.1, open loop at 100 req/s with 5 ms deterministic "
        "service: latency minus 5 ms and CPU per request are the runtime's own cost",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

_HEAP = (EXACT_CORE, BROADCAST_FANOUT, HARDENED_STACK)
_ALL = WORKLOAD_NAMES

END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "first statement of the command to ready-to-time: imports, inputs from the seed, "
             "full-load calibration, first build_cluster; median of three fresh interpreters"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median host wall of one timed unit"),
    EndToEnd("requests_per_s", "req/s", "higher", 0.25,
             "requests completed in the unit (simulated or served; cache-served cells count) "
             "per second of unit wall"),
    EndToEnd("cpu_ms_per_request", "ms", "lower", 0.25,
             "process CPU (user+sys, children included) of the unit per request"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the run (the larger of the process and its reaped children)"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median host latency of the one operation a user waits on: a request "
             "(live_loopback), a run_simulation call (the four simulation workloads), a warm "
             "cached campaign re-run (campaign_sweep)"),
)

_RPS = "requests_per_s"


def _pl(name, unit, better, home, moves):
    return PerLayer(name, unit, better, name.split(".")[0], tuple(home), moves)


PER_LAYER = (
    # --- sim ----------------------------------------------------------
    _pl("sim.heap.timer_events_per_s", "1/s", "higher", [EXACT_CORE], f"{_RPS} on the heap workloads, most on exact_core"),
    _pl("sim.heap.chain_events_per_s", "1/s", "higher", [EXACT_CORE], f"{_RPS} on exact_core"),
    _pl("sim.heap.cancel_events_per_s", "1/s", "higher", [EXACT_CORE], f"{_RPS} on hardened_stack (timeouts cancel)"),
    _pl("sim.calendar.timer_events_per_s", "1/s", "higher", [EXACT_CORE], "none end to end (calendar is the parity partner only)"),
    _pl("sim.events_per_request", "count", "lower", _HEAP, f"{_RPS} on the same workload"),
    _pl("sim.host_us_per_event", "us", "lower", _HEAP, f"{_RPS} on the same workload"),
    _pl("sim.self_share", "share", "lower", (*_HEAP, FAST_SCALE), f"{_RPS}; bounds what a scheduler change can save"),
    _pl("sim.fastpath.requests_per_s.random", "1/s", "higher", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    _pl("sim.fastpath.requests_per_s.polling", "1/s", "higher", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    _pl("sim.fastpath.requests_per_s.broadcast", "1/s", "higher", [FAST_SCALE], f"{_RPS} on fast_scale only (over half the unit)"),
    _pl("sim.fastpath.requests_per_s.stale_jsq", "1/s", "higher", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    _pl("sim.fastpath.ticks.random", "count", "lower", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    _pl("sim.fastpath.ticks.polling", "count", "lower", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    _pl("sim.fastpath.ticks.broadcast", "count", "lower", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    _pl("sim.fastpath.ticks.stale_jsq", "count", "lower", [FAST_SCALE], f"{_RPS} on fast_scale only"),
    # --- net ----------------------------------------------------------
    _pl("net.send_deliver_us", "us", "lower", [BROADCAST_FANOUT], f"{_RPS} on exact_core (send)"),
    _pl("net.switch_send_deliver_us", "us", "lower", [BROADCAST_FANOUT], "none end to end (switch model is ablation-only)"),
    _pl("net.publish_us_per_subscriber", "us", "lower", [BROADCAST_FANOUT], f"{_RPS} on broadcast_fanout (publish)"),
    _pl("net.messages_per_request", "count", "lower", _HEAP, f"{_RPS} on the same workload"),
    _pl("net.self_share", "share", "lower", _HEAP, f"{_RPS} on broadcast_fanout and exact_core; none on fast_scale"),
    _pl("net.chaos_drop_share", "share", "lower", [HARDENED_STACK], "none (a simulated count; checks the fault plane is on)"),
    # --- core ---------------------------------------------------------
    _pl("core.select_self_us.random", "us", "lower", [EXACT_CORE], f"{_RPS} on exact_core"),
    _pl("core.select_self_us.polling", "us", "lower", [EXACT_CORE], f"{_RPS} on exact_core"),
    _pl("core.select_self_us.ideal", "us", "lower", [EXACT_CORE], f"{_RPS} on exact_core"),
    _pl("core.select_self_us.broadcast", "us", "lower", [BROADCAST_FANOUT], f"{_RPS} on broadcast_fanout"),
    _pl("core.self_share", "share", "lower", _HEAP, f"{_RPS} on the workload of that policy"),
    _pl("core.polls_per_request", "count", "lower", [EXACT_CORE, HARDENED_STACK], f"{_RPS} on the same workload"),
    _pl("core.poll_discard_share", "share", "lower", [EXACT_CORE], "none (simulated: discarded / sent on the prototype cell)"),
    _pl("core.broadcasts_per_request", "count", "lower", [BROADCAST_FANOUT], f"{_RPS} on broadcast_fanout"),
    # --- cluster ------------------------------------------------------
    _pl("cluster.lifecycle_self_share", "share", "lower", _HEAP, f"{_RPS} on exact_core"),
    _pl("cluster.server_self_share", "share", "lower", _HEAP, f"{_RPS} on exact_core"),
    _pl("cluster.subsystem_self_share", "share", "lower", _HEAP, f"{_RPS} on hardened_stack; must stay 0 on exact_core"),
    _pl("cluster.server_fifo_requests_per_s", "1/s", "higher", [EXACT_CORE], f"{_RPS} on exact_core"),
    _pl("cluster.build_ms.n16", "ms", "lower", [CAMPAIGN_SWEEP], "setup_s everywhere, wall_s on campaign_sweep"),
    _pl("cluster.build_ms.n1000", "ms", "lower", [FAST_SCALE], "setup_s at scale (heap N=1000 construction)"),
    *(
        _pl(f"cluster.{kind}_ratio.{sub}", "ratio", "lower", [HARDENED_STACK],
            f"{_RPS} on hardened_stack, nothing on exact_core")
        for sub in ("availability", "chaos", "reliability", "overload", "dispatcher", "autoscaler")
        for kind in ("cost", "events")
    ),
    _pl("cluster.retries_per_request", "count", "lower", [HARDENED_STACK], "none (simulated useful-work count)"),
    _pl("cluster.hedge_win_share", "share", "higher", [HARDENED_STACK], "none (simulated: hedge wins / hedges launched)"),
    _pl("cluster.shed_share", "share", "lower", [HARDENED_STACK], "none (simulated: shed / offered)"),
    _pl("cluster.dispatcher_failovers_per_request", "count", "lower", [HARDENED_STACK], "none (simulated)"),
    _pl("cluster.goodput_share", "share", "higher", [HARDENED_STACK], "failed of attempted on hardened_stack"),
    # --- telemetry / verify ------------------------------------------
    _pl("telemetry.cost_ratio", "ratio", "lower", [HARDENED_STACK], "none while off, which the all-off workloads check"),
    _pl("telemetry.spans_per_request", "count", "lower", [HARDENED_STACK], "none while off"),
    _pl("telemetry.report_ms", "ms", "lower", [HARDENED_STACK], "none while off"),
    _pl("verify.cost_ratio", "ratio", "lower", [HARDENED_STACK], "none while off"),
    _pl("verify.events_ratio", "ratio", "lower", [HARDENED_STACK], "none: must be exactly 1.0 (the oracle schedules nothing)"),
    # --- workload / prototype ----------------------------------------
    _pl("workload.generate_ms_per_mreq.poisson_exp", "ms", "lower", [FAST_SCALE], "setup_s everywhere, wall_s on fast_scale and campaign_sweep"),
    _pl("workload.generate_ms_per_mreq.fine_grain", "ms", "lower", [FAST_SCALE], "wall_s on exact_core's prototype cell"),
    _pl("workload.generate_ms_per_mreq.mmpp_exp", "ms", "lower", [FAST_SCALE], "none in this suite (autoscale campaigns)"),
    _pl("workload.generate_ms_per_mreq.replay_bursty", "ms", "lower", [FAST_SCALE], "wall_s on campaign_sweep"),
    _pl("prototype.calibration_s", "s", "lower", [EXACT_CORE], "setup_s on exact_core"),
    # --- experiments --------------------------------------------------
    *(
        _pl(f"experiments.{name}", unit, better, [CAMPAIGN_SWEEP], moves)
        for name, unit, better, moves in (
            ("expand_ms", "ms", "lower", "wall_s on campaign_sweep"),
            ("cold_sweep_s", "s", "lower", "wall_s on campaign_sweep (the bulk of it)"),
            ("warm_sweep_s", "s", "lower", "latency_p50_ms on campaign_sweep"),
            ("render_ms", "ms", "lower", "wall_s on campaign_sweep"),
            ("archive_roundtrip_ms", "ms", "lower", "wall_s on campaign_sweep"),
            ("cache_key_us", "us", "lower", "warm_sweep_s"),
            ("cache_put_ms", "ms", "lower", "cold_sweep_s"),
            ("cache_get_ms", "ms", "lower", "warm_sweep_s"),
            ("first_result_s", "s", "lower", "cold_sweep_s (pool start + first chunk)"),
            ("parallel_efficiency", "share", "higher", "cold_sweep_s: sum of cell walls / (2 x cold wall)"),
            ("cache_hit_share", "share", "higher", "none: must be 1.0 on the warm re-run"),
            ("cell_wall_p50_ms", "ms", "lower", "cold_sweep_s"),
            ("cell_wall_max_ms", "ms", "lower", "cold_sweep_s: the slowest chunk sets the cold wall"),
        )
    ),
    _pl("experiments.self_share", "share", "lower", [CAMPAIGN_SWEEP], "wall_s on campaign_sweep"),
    # --- live ---------------------------------------------------------
    _pl("live.wire_encode_us", "us", "lower", [LIVE_LOOPBACK], "cpu_ms_per_request on live_loopback"),
    _pl("live.wire_decode_us", "us", "lower", [LIVE_LOOPBACK], "cpu_ms_per_request on live_loopback"),
    _pl("live.latency_p95_ms", "ms", "lower", [LIVE_LOOPBACK], "latency_p50_ms on live_loopback (tail beside the median)"),
    _pl("live.overhead_p50_ms", "ms", "lower", [LIVE_LOOPBACK], "latency_p50_ms on live_loopback (p50 - 5 ms service)"),
    _pl("live.poll_rtt_ms", "ms", "lower", [LIVE_LOOPBACK], "latency_p50_ms on live_loopback"),
    _pl("live.timeouts_per_request", "count", "lower", [LIVE_LOOPBACK], "failed of attempted on live_loopback"),
    _pl("live.run_overrun_ms", "ms", "lower", [LIVE_LOOPBACK], "none: how late the open loop ran against its schedule"),
    _pl("live.sim_gap_ratio", "ratio", "lower", [LIVE_LOOPBACK], "latency_p50_ms on live_loopback (live p50 / simulated p50)"),
    _pl("live.self_share", "share", "lower", [LIVE_LOOPBACK], "cpu_ms_per_request on live_loopback"),
    # --- analysis (accuracy beside speed) ----------------------------
    _pl("analysis.meanfield_rel_error.polling", "share", "lower", [FAST_SCALE], "none: a fast engine that drifts from the fixed point is not faster"),
    _pl("analysis.mm1_rel_error.random", "share", "lower", [EXACT_CORE], "none: heap N=16 random against M/M/1"),
    # --- bench (the harness itself) ----------------------------------
    _pl("bench.host_calibration_ms", "ms", "lower", _ALL, "none: tells a slow host from slow code"),
    _pl("bench.trace_overhead_ratio", "ratio", "lower", _ALL, "none: traced / untraced wall of the same unit"),
    _pl("bench.self_share", "share", "lower", _ALL, "none: the harness's own share of the traced unit"),
    _pl("bench.failed_share", "share", "lower", _ALL, "requests lost by the program or failed by the simulated cluster, of attempted"),
)

#: span-name prefixes (layer of a self-time share) -> per-layer metric
SHARE_METRICS = {
    "sim": "sim.self_share",
    "net": "net.self_share",
    "core": "core.self_share",
    "cluster.lifecycle": "cluster.lifecycle_self_share",
    "cluster.server": "cluster.server_self_share",
    "cluster.subsystem": "cluster.subsystem_self_share",
    "experiments": "experiments.self_share",
    "live": "live.self_share",
    "bench": "bench.self_share",
}

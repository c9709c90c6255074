"""Per-layer numbers: what a ``--trace 1`` run of one workload measures.

Each function below is the traced pass of one workload. It repeats the
workload's unit once untraced (the reference) and once with spans
recorded, derives the shares and counts that unit can give, and runs
the isolated layer measurements homed in that workload
(``metrics.PER_LAYER[...].home``). All host times go through the meter,
so they read on the same reference host as the end-to-end numbers.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.experiments import (
    ResultCache,
    SimulationConfig,
    SweepExecutor,
    build_cluster,
    config_key,
    run_simulation,
)

import metrics as M
import workloads as W
from harness import WARMUP_SCALE, Meter, Slice
from tracing import HeapTracer, Tracer, calibrate, layer_of, layer_shares

MATRIX_ROUNDS = 3
#: tolerance of parity.meanfield_check (mean-field fixed point)
MEANFIELD_TOLERANCE = 0.05
#: heap N=16 random at load 0.9 over 40k requests has a ~3% standard
#: error against M/M/1, so the same 5% would fail one seed in ten
MM1_TOLERANCE = 0.10


class TracedRun:
    """Everything a traced pass hands back to the command."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.checks: dict[str, bool] = {}
        self.sections: list[dict] = []
        self.requests = 0
        self.failed = 0  # requests the program left without an outcome
        self.sim_failed = 0  # requests the simulated cluster failed (model output)
        self._by_name: dict[str, dict[str, float]] = {}
        self.traced_wall = 0.0
        self.untraced_wall = 0.0

    def add_section(self, label: str, tracer: Tracer, extra: dict | None = None) -> dict:
        by_name = tracer.by_name()
        for name, row in by_name.items():
            total = self._by_name.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += row[key]
        self.sections.append(
            {
                "label": label,
                "spans_recorded": len(tracer.start),
                "aggregates": by_name,
                "spans": tracer.head(),
                **(extra or {}),
            }
        )
        return by_name

    def finish(self, meter: Meter) -> None:
        shares = layer_shares(self._by_name, set(M.SHARE_METRICS))
        for layer, metric in M.SHARE_METRICS.items():
            self.values[metric] = shares[layer]
        self.checks["self_time_shares_sum_to_1"] = abs(sum(shares.values()) - 1.0) <= 0.02
        self.values["bench.trace_overhead_ratio"] = self.traced_wall / self.untraced_wall
        self.values["bench.host_calibration_ms"] = statistics.median(meter.probes) * 1e3
        failed = self.failed + self.sim_failed
        self.values["bench.failed_share"] = failed / self.requests
        self.checks["failed_share_le_0.01"] = failed <= W.MAX_FAILED_SHARE * self.requests


def _ref(slice_: Slice, seconds: float) -> float:
    """Seconds measured inside ``slice_`` on the reference host."""
    return seconds * slice_.factor


def _layer_self_s(by_name: dict[str, dict[str, float]], layer: str) -> float:
    return sum(row["self_s"] for name, row in by_name.items() if layer_of(name) == layer)


# ----------------------------------------------------------------------
# heap workloads
# ----------------------------------------------------------------------
def _traced_cell(cfg: SimulationConfig, tracer: Tracer) -> dict[str, Any]:
    """What run_simulation does, with spans: build, run, summarize."""
    tracer.reset()
    with tracer.span("bench.cell"):
        with tracer.span("cluster.system.build_cluster"):
            cluster, _ = build_cluster(cfg)
        with HeapTracer(tracer).installed(cluster), tracer.span("sim.run"):
            metrics = cluster.run()
        with tracer.span("cluster.system.summary"):
            summary = metrics.summary(cfg.warmup_fraction)
    return {"events": cluster.sim.events_executed, "n_failed": summary["n_failed"]}


def _heap_unit(wl: W.CellWorkload, meter: Meter, tracer: Tracer, out: TracedRun) -> dict[str, Any]:
    """Untraced then traced pass over the workload's cells."""
    calibrate(tracer)
    wl.unit(Meter(), scale=wl.scale * WARMUP_SCALE)  # discarded, as in the untraced run
    per_cell: dict[str, Any] = {}
    events = messages = 0
    host_s = 0.0
    for label, cfg in wl.cells(wl.scale):
        result = meter.run(label, run_simulation, cfg)
        untraced = meter.slices[-1]
        traced_info = meter.run(f"traced:{label}", _traced_cell, cfg, tracer)
        traced = meter.slices[-1]
        by_name = out.add_section(label, tracer, {"config": cfg.describe()})
        out.checks[f"traced_matches_untraced:{label}"] = (
            traced_info["events"] == result.events_executed
            and traced_info["n_failed"] == result.n_failed
        )
        out.untraced_wall += untraced.wall_ref
        out.traced_wall += traced.wall_ref
        out.requests += cfg.n_requests
        out.failed += W.results_lost([result])
        out.sim_failed += result.n_failed
        events += result.events_executed
        messages += sum(result.message_counts.values())
        host_s += untraced.wall_ref
        # Shares come from the traced run, magnitude from the untraced one.
        core_share = _layer_self_s(by_name, "core") / sum(r["self_s"] for r in by_name.values())
        per_cell[label] = {
            "result": result,
            "core_self_us": core_share * untraced.wall_ref / cfg.n_requests * 1e6,
        }
    out.values["sim.events_per_request"] = events / out.requests
    out.values["sim.host_us_per_event"] = host_s / events * 1e6
    out.values["net.messages_per_request"] = messages / out.requests
    return per_cell


def _scheduler_rate(meter: Meter, name: str, fn: Callable[[], int]) -> float:
    events = meter.run(name, fn)
    return events / meter.slices[-1].wall_ref


def _sim_isolated(meter: Meter, n: int) -> dict[str, float]:
    """The three scheduler patterns of bench_engine_throughput, n events."""
    from repro.sim import make_simulator

    def timer(engine: str) -> Callable[[], int]:
        def run() -> int:
            sim = make_simulator(engine)
            noop = lambda: None  # noqa: E731
            for i in range(n):
                sim.after(i * 1e-6, noop)
            sim.run()
            return sim.events_executed
        return run

    def chain() -> int:
        sim = make_simulator("heap")
        left = [n]

        def tick() -> None:
            left[0] -= 1
            if left[0]:
                sim.after(1e-6, tick)

        sim.after(1e-6, tick)
        sim.run()
        return sim.events_executed

    def cancel() -> int:
        sim = make_simulator("heap")
        handles = [sim.after(i * 1e-6, lambda: None) for i in range(n)]
        for handle in handles[::2]:
            sim.cancel(handle)
        sim.run()
        return n  # scheduled events: half run, half are skipped when popped

    return {
        "sim.heap.timer_events_per_s": _scheduler_rate(meter, "sim.timer", timer("heap")),
        "sim.heap.chain_events_per_s": _scheduler_rate(meter, "sim.chain", chain),
        "sim.heap.cancel_events_per_s": _scheduler_rate(meter, "sim.cancel", cancel),
        "sim.calendar.timer_events_per_s": _scheduler_rate(meter, "sim.calendar", timer("calendar")),
    }


def _server_fifo(meter: Meter, n: int, seed: int) -> float:
    from repro.cluster import Request, ServerNode
    from repro.sim import Simulator

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1e-3, n))
    services = rng.exponential(0.8e-3, n)

    def run() -> int:
        sim = Simulator()
        server = ServerNode(sim, 0)
        done = [0]

        def on_complete(_server, _request) -> None:
            done[0] += 1

        server.on_complete = on_complete
        for i in range(n):
            sim.at(float(arrivals[i]), server.enqueue,
                   Request(i, 9, float(services[i]), float(arrivals[i])))
        sim.run()
        return done[0]

    return meter.run("cluster.server_fifo", run) / meter.slices[-1].wall_ref


def exact_core(wl: W.ExactCore, meter: Meter, tracer: Tracer) -> TracedRun:
    from repro.analysis.mm1 import mm1_mean_response_time
    from repro.workload.workloads import make_workload

    out = TracedRun()
    meter.run("prototype.calibration", wl.calibrate)
    out.values["prototype.calibration_s"] = meter.slices[-1].wall_ref
    wl.setup()
    cells = _heap_unit(wl, meter, tracer, out)
    for policy in ("random", "polling", "ideal"):
        out.values[f"core.select_self_us.{policy}"] = cells[policy]["core_self_us"]
    counters = [c["result"].policy_counters for c in cells.values()]
    out.values["core.polls_per_request"] = sum(c.get("polls_sent", 0) for c in counters) / out.requests
    proto = cells["prototype"]["result"].policy_counters
    out.values["core.poll_discard_share"] = proto["replies_discarded"] / proto["polls_sent"]
    n = max(2_000, int(100_000 * wl.scale))
    out.values.update(_sim_isolated(meter, n))
    out.values["cluster.server_fifo_requests_per_s"] = _server_fifo(meter, n // 5, wl.seed)
    accuracy = run_simulation(
        SimulationConfig(policy="random", n_servers=16, load=0.9,
                         n_requests=max(4_000, int(40_000 * wl.scale)), seed=wl.cell_seed(7))
    )
    predicted = mm1_mean_response_time(0.9, make_workload("poisson_exp").mean_service_time())
    error = abs(accuracy.mean_response_time - predicted) / predicted
    out.values["analysis.mm1_rel_error.random"] = error
    # a short run has not reached the stationary mean; only full size is held to it
    out.checks["mm1_rel_error_le_0.10"] = error <= MM1_TOLERANCE or wl.scale < 1.0
    out.finish(meter)
    return out


def _net_isolated(meter: Meter, n: int) -> dict[str, float]:
    from repro.net.latency import ConstantLatency
    from repro.net.message import MessageKind
    from repro.net.switch import SwitchedEthernet
    from repro.net.transport import BroadcastChannel, Network
    from repro.sim import Simulator

    def network(switch: bool) -> Network:
        sim = Simulator()
        return Network(
            sim, np.random.default_rng(0), ConstantLatency(145e-6),
            switch=SwitchedEthernet(sim, 32) if switch else None,
        )

    def unicast(switch: bool) -> Callable[[], int]:
        def run() -> int:
            net = network(switch)
            got = [0]

            def deliver(_message) -> None:
                got[0] += 1

            for i in range(n):
                net.send(MessageKind.POLL, i & 15, 16 + (i & 7), None, deliver)
            net.sim.run()
            return got[0]
        return run

    def publish() -> int:
        net = network(False)
        channel = BroadcastChannel(net)
        got = [0]

        def deliver(_message) -> None:
            got[0] += 1

        for node in range(100):
            channel.subscribe(node, deliver)
        for i in range(n // 100):
            channel.publish(200 + (i & 63), (i, 0))
        net.sim.run()
        return got[0]

    out = {}
    for name, fn in (
        ("net.send_deliver_us", unicast(False)),
        ("net.switch_send_deliver_us", unicast(True)),
        ("net.publish_us_per_subscriber", publish),
    ):
        delivered = meter.run(name, fn)
        out[name] = meter.slices[-1].wall_ref / delivered * 1e6
    return out


def broadcast_fanout(wl: W.BroadcastFanout, meter: Meter, tracer: Tracer) -> TracedRun:
    out = TracedRun()
    wl.setup()
    cells = _heap_unit(wl, meter, tracer, out)
    cell = cells["broadcast"]
    out.values["core.select_self_us.broadcast"] = cell["core_self_us"]
    out.values["core.broadcasts_per_request"] = (
        cell["result"].policy_counters["broadcasts_sent"] / out.requests
    )
    out.values.update(_net_isolated(meter, max(2_000, int(50_000 * wl.scale))))
    out.finish(meter)
    return out


def _cost_matrix(wl: W.HardenedStack, meter: Meter) -> dict[str, float]:
    """Each optional subsystem on alone against all off, same base cell.

    chaos and the autoscaler cannot run without the availability
    subsystem and client time-outs, so their rows include it.
    """
    base = W.hardened_base(wl.n(2_000, wl.scale), wl.cell_seed(5))
    parts = W.hardened_parts()
    needs_availability = ("chaos", "autoscaler")
    variants = {"off": base}
    for name, fields in parts.items():
        extra = parts["availability"] if name in needs_availability else {}
        variants[name] = replace(base, **{**extra, **fields})
    variants["telemetry"] = replace(base, telemetry={"spans": True})
    variants["verify"] = replace(base, verify_params={"enabled": True})
    # Three interleaved rounds, median of the per-round ratios: one pass of
    # 0.2-0.6 s cells moved the ratios by +-25% from run to run.
    walls: dict[str, list[float]] = {name: [] for name in variants}
    results: dict[str, Any] = {}
    for _ in range(MATRIX_ROUNDS):
        for name, cfg in variants.items():
            results[name] = meter.run(f"matrix:{name}", run_simulation, cfg)
            walls[name].append(meter.slices[-1].wall_ref)

    def cost(name: str) -> float:
        return statistics.median(w / off for w, off in zip(walls[name], walls["off"]))

    def events(name: str) -> float:
        return results[name].events_executed / results["off"].events_executed

    out = {}
    for name in parts:
        out[f"cluster.cost_ratio.{name}"] = cost(name)
        out[f"cluster.events_ratio.{name}"] = events(name)
    out["telemetry.cost_ratio"] = cost("telemetry")
    out["telemetry.spans_per_request"] = (
        results["telemetry"].telemetry_summary["n_spans"] / base.n_requests
    )
    out["verify.cost_ratio"] = cost("verify")
    out["verify.events_ratio"] = events("verify")
    cluster, _ = build_cluster(variants["telemetry"])
    cluster.run()
    meter.run("telemetry.report", cluster.telemetry.report)
    out["telemetry.report_ms"] = meter.slices[-1].wall_ref * 1e3
    return out


def hardened_stack(wl: W.HardenedStack, meter: Meter, tracer: Tracer) -> TracedRun:
    out = TracedRun()
    wl.setup()
    cells = _heap_unit(wl, meter, tracer, out)
    results = [cell["result"] for cell in cells.values()]
    n = out.requests

    def total(name: str) -> float:
        return sum(r.chaos_counters[name] for r in results)

    out.values["core.polls_per_request"] = sum(r.policy_counters["polls_sent"] for r in results) / n
    sent = sum(sum(r.message_counts.values()) for r in results)
    out.values["net.chaos_drop_share"] = (total("messages_lost") + total("messages_partition_dropped")) / sent
    out.values["cluster.retries_per_request"] = total("total_retries") / n
    hedges = total("hedges_launched")
    out.values["cluster.hedge_win_share"] = total("hedge_wins") / hedges if hedges else 0.0
    out.values["cluster.shed_share"] = total("requests_shed") / n
    out.values["cluster.dispatcher_failovers_per_request"] = total("dispatcher_failovers") / n
    out.values["cluster.goodput_share"] = (n - out.failed - out.sim_failed) / n
    out.values.update(_cost_matrix(wl, meter))
    out.checks["verify_events_ratio_is_1"] = out.values["verify.events_ratio"] == 1.0
    out.finish(meter)
    return out


# ----------------------------------------------------------------------
# the other three: spans around the public calls
# ----------------------------------------------------------------------
def _coarse_unit(wl: W.Workload, meter: Meter, tracer: Tracer, out: TracedRun) -> W.UnitResult:
    """The unit once untraced, once with a span around every slice."""
    wl.unit(wl.meter(), scale=wl.scale * WARMUP_SCALE)  # discarded, as in the untraced run
    def unit_wall(mark: int) -> float:
        totals = meter.since(mark)
        return totals.wall_ref if "wall" in wl.scaled else totals.wall

    mark = len(meter.slices)
    first = wl.unit(meter)
    out.untraced_wall = unit_wall(mark)
    mark = len(meter.slices)
    prefix = SPAN_LAYER[wl.name]
    tracer.reset()
    meter.span = lambda name: tracer.span(f"{prefix}.{name}")
    try:
        with tracer.span("bench.unit"):
            last = wl.unit(meter)
    finally:
        meter.span = None
    out.traced_wall = unit_wall(mark)
    out.add_section("unit", tracer)
    out.requests = last.requests
    out.failed = last.failed
    out.sim_failed = last.sim_failed
    out.checks.update(wl.checks(first, last))
    return first


def _first_by_name(slices: list[Slice]) -> dict[str, Slice]:
    """Slices by name, keeping the first of each: the untraced reference unit."""
    out: dict[str, Slice] = {}
    for s in slices:
        out.setdefault(s.name, s)
    return out


SPAN_LAYER = {M.FAST_SCALE: "sim", M.CAMPAIGN_SWEEP: "experiments", M.LIVE_LOOPBACK: "live"}


def fast_scale(wl: W.FastScale, meter: Meter, tracer: Tracer) -> TracedRun:
    from repro.analysis.meanfield import meanfield_prediction
    from repro.workload.workloads import make_workload

    out = TracedRun()
    wl.setup()
    unit = _coarse_unit(wl, meter, tracer, out)
    by_label = _first_by_name(meter.slices)
    for label, result in unit.results.items():
        out.values[f"sim.fastpath.requests_per_s.{label}"] = (
            result.config.n_requests / by_label[label].wall_ref
        )
        out.values[f"sim.fastpath.ticks.{label}"] = result.events_executed

    n = max(10_000, int(200_000 * wl.scale))
    for name, params in (
        ("poisson_exp", {}), ("fine_grain", {}), ("mmpp_exp", {}),
        ("replay_bursty", {"burst_ratio": 10.0}),
    ):
        workload = make_workload(name, **params)
        meter.run(f"workload.{name}", workload.generate, np.random.default_rng(wl.seed), n)
        out.values[f"workload.generate_ms_per_mreq.{name}"] = (
            meter.slices[-1].wall_ref * 1e3 * (1_000_000 / n)
        )
    big = SimulationConfig(policy="random", n_servers=1000, n_requests=1_000, seed=wl.seed)
    meter.run("cluster.build.n1000", build_cluster, big)
    out.values["cluster.build_ms.n1000"] = meter.slices[-1].wall_ref * 1e3

    # parity.meanfield_suite's polling cell, at this workload's load
    cell = SimulationConfig(
        policy="polling", policy_params={"poll_size": 2}, engine="fast", n_servers=1000,
        load=0.9, warmup_fraction=0.25, n_requests=n, seed=wl.cell_seed(9),
    )
    predicted = meanfield_prediction(cell).mean_response_time
    error = abs(run_simulation(cell).mean_response_time - predicted) / predicted
    out.values["analysis.meanfield_rel_error.polling"] = error
    out.checks["meanfield_rel_error_le_0.05"] = error <= MEANFIELD_TOLERANCE or wl.scale < 1.0
    out.finish(meter)
    return out


def campaign_sweep(wl: W.CampaignSweep, meter: Meter, tracer: Tracer) -> TracedRun:
    import time

    out = TracedRun()
    wl.setup()
    unit = _coarse_unit(wl, meter, tracer, out)
    by_label = _first_by_name(meter.slices)
    v = out.values
    v["experiments.expand_ms"] = by_label["expand"].wall_ref * 1e3
    v["experiments.cold_sweep_s"] = by_label["cold"].wall_ref
    v["experiments.warm_sweep_s"] = by_label["warm"].wall_ref
    v["experiments.render_ms"] = by_label["render"].wall_ref * 1e3
    v["experiments.archive_roundtrip_ms"] = (by_label["save"].wall_ref + by_label["load"].wall_ref) * 1e3
    results = unit.results["cold"].results
    cold = by_label["cold"]
    cell_walls = [_ref(cold, r.wall_seconds) * 1e3 for r in results]
    v["experiments.cell_wall_p50_ms"] = statistics.median(cell_walls)
    v["experiments.cell_wall_max_ms"] = max(cell_walls)
    v["experiments.parallel_efficiency"] = sum(r.wall_seconds for r in results) / (wl.WORKERS * cold.wall)
    hits, misses = unit.results["warm_hits"], unit.results["warm_misses"]
    v["experiments.cache_hit_share"] = hits / (hits + misses)

    configs = [r.config for r in results]
    meter.run("cache_key", lambda: [config_key(c) for c in configs])
    v["experiments.cache_key_us"] = meter.slices[-1].wall_ref / len(configs) * 1e6
    cache = ResultCache(wl.tmp / "layer_cache")
    meter.run("cache_put", lambda: [cache.put(r) for r in results])
    v["experiments.cache_put_ms"] = meter.slices[-1].wall_ref / len(results) * 1e3
    meter.run("cache_get", lambda: [cache.get(c) for c in configs])
    v["experiments.cache_get_ms"] = meter.slices[-1].wall_ref / len(configs) * 1e3

    first_at: list[float] = []

    def cold_sweep() -> None:
        started = time.perf_counter()

        def progress(_done: int, _total: int, _result) -> None:
            if not first_at:
                first_at.append(time.perf_counter() - started)

        with SweepExecutor(max_workers=wl.WORKERS) as pool:
            pool.sweep(configs, progress=progress)

    meter.run("first_result", cold_sweep)
    v["experiments.first_result_s"] = _ref(meter.slices[-1], first_at[0])

    small = configs[0]
    meter.run("cluster.build.n16", lambda: [build_cluster(small) for _ in range(10)])
    v["cluster.build_ms.n16"] = meter.slices[-1].wall_ref / 10 * 1e3
    out.finish(meter)
    return out


def live_loopback(wl: W.LiveLoopback, meter: Meter, tracer: Tracer) -> TracedRun:
    from repro.live import decode_message, encode_message

    out = TracedRun()
    wl.setup()
    unit = _coarse_unit(wl, meter, tracer, out)
    live = unit.results
    summary = live.summary
    n = live.config.n_requests
    v = out.values
    p50_ms = summary["p50_response_time"] * 1e3
    v["live.latency_p95_ms"] = summary["p95_response_time"] * 1e3
    v["live.overhead_p50_ms"] = p50_ms - wl.SERVICE_S * 1e3
    v["live.poll_rtt_ms"] = summary["mean_poll_time"] * 1e3
    v["live.timeouts_per_request"] = live.resilience_counters["request_timeouts_fired"] / n
    scheduled = float(live.arrival_epochs[-1] - live.arrival_epochs[0])
    v["live.run_overrun_ms"] = (live.wall_seconds - scheduled) * 1e3
    simulated = run_simulation(live.config.sim_config())
    v["live.sim_gap_ratio"] = p50_ms / (simulated.p50_response_time * 1e3)

    reps = max(1_000, int(20_000 * wl.scale))
    fields = dict(id=7, attempt=0, client=3, service=wl.SERVICE_S)
    datagram = encode_message("request", **fields)
    hot = Meter()  # tight loops: the hot probe, not the live unit's cold one
    hot.run("wire_encode", lambda: [encode_message("request", **fields) for _ in range(reps)])
    v["live.wire_encode_us"] = hot.slices[-1].wall_ref / reps * 1e6
    hot.run("wire_decode", lambda: [decode_message(datagram) for _ in range(reps)])
    v["live.wire_decode_us"] = hot.slices[-1].wall_ref / reps * 1e6
    out.finish(hot)
    return out


TRACED = {
    M.EXACT_CORE: exact_core,
    M.BROADCAST_FANOUT: broadcast_fanout,
    M.HARDENED_STACK: hardened_stack,
    M.FAST_SCALE: fast_scale,
    M.CAMPAIGN_SWEEP: campaign_sweep,
    M.LIVE_LOOPBACK: live_loopback,
}

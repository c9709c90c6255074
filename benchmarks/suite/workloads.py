"""The six workloads. Every input derives from ``--seed``.

A workload's *unit* is the fixed piece of work one timed repeat runs.
Units are made of slices of at most a few hundred milliseconds, because
the meter can only cancel host-speed changes slower than a slice
(:mod:`harness`); that is why the cell sizes are a quarter of the sizes
the issue sketched and run four times as often.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from repro.experiments import (
    ResultCache,
    SimulationConfig,
    build_cluster,
    chaos_cluster_params,
    chaos_params_for,
    composed_spec,
    hardened_reliability_params,
    load_results,
    overload_control_params,
    run_simulation,
    save_results,
)
from repro.experiments.autoscale import autoscale_dispatcher_params, autoscale_scaling_params

import metrics as M
from harness import COLD_REF_S, Meter, cold_probe

OUT_DIR = Path(__file__).resolve().parent / "out"

#: (failed + sim_failed) / attempted above this fails the run's output check
MAX_FAILED_SHARE = 0.01


class UnitResult(NamedTuple):
    """What one unit did: counts for the metrics, a hash of its
    simulated statistics, latency samples (ms), and raw results for
    the checks and the per-layer numbers.

    ``failed`` counts requests the *program* owed an outcome and gave
    none: lost by the simulator, or failed on the real sockets. It is
    the result object's ``failed`` and is 0 on a working program.
    ``sim_failed`` counts requests the *simulated cluster* failed under
    the faults the cell injects: a model output, fixed by the seed, in
    the fingerprint and the ``failed_share`` check but not an operation
    of the program that failed.
    """

    requests: int
    failed: int
    sim_failed: int
    fingerprint: str
    latencies_ms: list[float]
    results: Any


def result_fingerprint(result) -> str:
    """Hash of one result's simulated statistics (never host time)."""
    fields = (
        result.mean_response_time,
        result.p50_response_time,
        result.p95_response_time,
        result.p99_response_time,
        result.events_executed,
        sorted(result.message_counts.items()),
        tuple(result.server_counts),
        result.n_failed,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def combined_fingerprint(parts: Sequence[str]) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def conservation_ok(config, n_measured: int, n_failed: int) -> bool:
    """Every request is measured, failed, or inside the warm-up window
    (a failed request may also sit in the window, hence the slack)."""
    warmup = int(config.n_requests * config.warmup_fraction)
    surplus = n_measured + n_failed + warmup - config.n_requests
    return 0 <= surplus <= n_failed


def results_conserved(results) -> bool:
    return all(conservation_ok(r.config, r.n_measured, r.n_failed) for r in results)


def lost_requests(config, n_measured: int, n_failed: int) -> int:
    """Requests with no outcome at all: not measured, not failed by the
    simulated cluster, not inside the warm-up window."""
    warmup = int(config.n_requests * config.warmup_fraction)
    return max(0, config.n_requests - warmup - n_measured - n_failed)


def results_lost(results) -> int:
    return sum(lost_requests(r.config, r.n_measured, r.n_failed) for r in results)


class Workload:
    """Common shape: ``setup()`` once, then ``unit()`` per repeat."""

    name = ""
    #: which of a repeat's times are read on the reference host (harness.py)
    scaled: tuple[str, ...] = ("wall", "cpu")
    #: the smallest scale at which the unit still behaves like itself
    min_scale = 0.02
    #: the traced pass runs the unit at this multiple of its size
    trace_scale = 1.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = max(scale, self.min_scale)

    def meter(self) -> Meter:
        """The meter this workload's times are read with."""
        return Meter()

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, meter: Meter, scale: float | None = None) -> UnitResult:
        raise NotImplementedError

    def checks(self, first: UnitResult, last: UnitResult) -> dict[str, bool]:
        return {
            "fingerprint_repeats": first.fingerprint == last.fingerprint,
            "failed_share_le_0.01": last.failed + last.sim_failed <= MAX_FAILED_SHARE * last.requests,
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# simulation workloads: a fixed list of cells through run_simulation
# ----------------------------------------------------------------------
class CellWorkload(Workload):
    def cells(self, scale: float) -> list[tuple[str, SimulationConfig]]:
        raise NotImplementedError

    def n(self, requests: int, scale: float) -> int:
        return max(200, int(requests * scale))

    def cell_seed(self, index: int) -> int:
        return self.seed * 1009 + index

    def setup(self) -> None:
        # First construction pays the lazy imports of every subsystem the
        # cells switch on; the fast engine has no object cluster to build.
        _, first = self.cells(self.scale)[0]
        if first.engine != "fast":
            build_cluster(first)

    def unit(self, meter: Meter, scale: float | None = None) -> UnitResult:
        mark = len(meter.slices)
        cells = self.cells(self.scale if scale is None else max(scale, self.min_scale))
        results = [meter.run(label, run_simulation, cfg) for label, cfg in cells]
        return UnitResult(
            requests=sum(cfg.n_requests for _, cfg in cells),
            failed=results_lost(results),
            sim_failed=sum(r.n_failed for r in results),
            fingerprint=combined_fingerprint([result_fingerprint(r) for r in results]),
            latencies_ms=[s.wall_ref * 1e3 for s in meter.slices[mark:]],
            results=dict(zip((label for label, _ in cells), results)),
        )

    def checks(self, first: UnitResult, last: UnitResult) -> dict[str, bool]:
        out = super().checks(first, last)
        out["requests_conserved"] = results_conserved(last.results.values())
        return out


class ExactCore(CellWorkload):
    name = M.EXACT_CORE

    full_load_rho: float | None = None

    def calibrate(self) -> None:
        """The paper's 98%-under-2s full-load point of the prototype cell."""
        from repro.prototype.calibration import calibrate_full_load
        from repro.prototype.overhead import PrototypeOverheadModel
        from repro.workload.workloads import make_workload

        self.full_load_rho = calibrate_full_load(
            make_workload("fine_grain"), PrototypeOverheadModel(), seed=self.cell_seed(99)
        ).nominal_rho_at_full_load

    def setup(self) -> None:
        if self.full_load_rho is None:
            self.calibrate()
        super().setup()

    def cells(self, scale: float) -> list[tuple[str, SimulationConfig]]:
        base = dict(n_servers=16, load=0.9)
        poll3 = {"poll_size": 3}
        return [
            ("random", SimulationConfig(policy="random", n_requests=self.n(10_000, scale), seed=self.cell_seed(0), **base)),
            ("polling", SimulationConfig(policy="polling", policy_params=poll3, n_requests=self.n(5_000, scale), seed=self.cell_seed(1), **base)),
            ("ideal", SimulationConfig(policy="ideal", n_requests=self.n(7_500, scale), seed=self.cell_seed(2), **base)),
            ("prototype", SimulationConfig(
                policy="polling", policy_params={**poll3, "discard_slow": True},
                workload="fine_grain", model="prototype", full_load_rho=self.full_load_rho,
                n_requests=self.n(4_000, scale), seed=self.cell_seed(3), **base)),
        ]

    def checks(self, first: UnitResult, last: UnitResult) -> dict[str, bool]:
        out = super().checks(first, last)
        heap = last.results["polling"]
        calendar = run_simulation(replace(heap.config, engine="calendar"))
        out["calendar_matches_heap"] = result_fingerprint(calendar) == result_fingerprint(heap)
        return out


class BroadcastFanout(CellWorkload):
    name = M.BROADCAST_FANOUT

    def cells(self, scale: float) -> list[tuple[str, SimulationConfig]]:
        return [
            ("broadcast", SimulationConfig(
                policy="broadcast", policy_params={"mean_interval": 0.01},
                n_servers=100, load=0.9, n_requests=self.n(4_000, scale), seed=self.cell_seed(0))),
        ]


def hardened_base(n_requests: int, seed: int) -> SimulationConfig:
    """hardened_stack's cell with every subsystem off (the cost matrix's base)."""
    return SimulationConfig(
        policy="polling", policy_params={"poll_size": 3, "discard_slow": True},
        workload="poisson_exp", load=0.7, n_servers=16, n_requests=n_requests, seed=seed,
    )


def hardened_parts() -> dict[str, dict[str, dict]]:
    """SimulationConfig fields each optional subsystem needs, by name."""
    return {
        "availability": {"cluster_params": chaos_cluster_params()},
        "chaos": {"chaos_params": chaos_params_for(1.0)},
        "reliability": {"reliability_params": hardened_reliability_params()},
        "overload": {"overload_params": overload_control_params()},
        "dispatcher": {"dispatcher_params": autoscale_dispatcher_params()},
        "autoscaler": {"autoscaler_params": autoscale_scaling_params()},
    }


class HardenedStack(CellWorkload):
    """Eight copies of the cell under eight fault schedules: which servers
    straggle, crash and partition, and when, is drawn from the seed, and
    one 1.5k-request schedule alone moves host time by +-12%. With four
    schedules a unit still spread 0.10 from seed to seed, with eight 0.07."""

    name = M.HARDENED_STACK
    # below ~600 requests the chaos schedule's storms cover the whole run
    min_scale = 0.4
    SCHEDULES = 8

    def cells(self, scale: float) -> list[tuple[str, SimulationConfig]]:
        fields: dict[str, dict] = {}
        for part in hardened_parts().values():
            fields.update(part)
        # one dispatcher crash storm: only meaningful with the tier on
        fields["chaos_params"] = {**fields["chaos_params"], "dispatcher_storms": 1}
        return [
            (f"hardened{i}", replace(hardened_base(self.n(1_500, scale), self.cell_seed(i)), **fields))
            for i in range(self.SCHEDULES)
        ]


class FastScale(CellWorkload):
    name = M.FAST_SCALE

    POLICIES = (
        ("random", "random", {}),
        ("polling", "polling", {"poll_size": 2}),
        ("broadcast", "broadcast", {"mean_interval": 0.01}),
        ("stale_jsq", "stale_jsq", {"update_interval": 0.02}),
    )

    def setup(self) -> None:
        run_simulation(self.cells(0.02)[1][1])

    def cells(self, scale: float) -> list[tuple[str, SimulationConfig]]:
        return [
            (label, SimulationConfig(
                policy=policy, policy_params=dict(params), engine="fast",
                n_servers=1000, load=0.9, n_requests=self.n(50_000, scale), seed=self.cell_seed(i)))
            for i, (label, policy, params) in enumerate(self.POLICIES)
        ]


# ----------------------------------------------------------------------
# campaign_sweep
# ----------------------------------------------------------------------
class CampaignSweep(Workload):
    """``composed_spec`` end to end. The quick grid (32 cells) replaces
    the issue's 120-cell grid: a cold 120-cell sweep alone takes 4-10 s
    here, and three repeats of it do not fit one run."""

    name = M.CAMPAIGN_SWEEP
    WORKERS = 2

    def setup(self) -> None:
        self.spec = composed_spec(n_requests=max(200, int(400 * self.scale)), seed=self.seed, quick=True)
        build_cluster(self.spec.expand()[0].config)
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="campaign_", dir=OUT_DIR))
        self._round = 0

    def unit(self, meter: Meter, scale: float | None = None) -> UnitResult:
        # the spec is built once in setup(); the warm-up repeat runs it whole
        spec = self.spec
        self._round += 1
        cache_dir = self.tmp / f"cache{self._round}"
        archive = self.tmp / f"archive{self._round}.json"
        run = dict(parallel=True, max_workers=self.WORKERS)
        cells = meter.run("expand", spec.expand)
        cold_cache = ResultCache(cache_dir)
        cold = meter.run("cold", spec.run, cache=cold_cache, **run)
        warm_cache = ResultCache(cache_dir)
        warm = meter.run("warm", spec.run, cache=warm_cache, **run)
        warm_ms = meter.slices[-1].wall_ref * 1e3
        cold_text = meter.run("render", cold.render)
        warm_text = warm.render()
        meter.run("save", save_results, cold.results, archive)
        loaded = meter.run("load", load_results, archive)
        shutil.rmtree(cache_dir)
        archive.unlink()
        per_sweep = sum(cell.config.n_requests for cell in cells)
        return UnitResult(
            requests=2 * per_sweep,  # cache-served cells count
            failed=results_lost(cold.results),
            sim_failed=sum(r.n_failed for r in cold.results),
            fingerprint=hashlib.sha256(cold_text.encode()).hexdigest()[:16],
            latencies_ms=[warm_ms],
            results={
                "cells": cells,
                "cold": cold,
                "warm_equals_cold": warm_text == cold_text,
                "warm_hits": warm_cache.hits,
                "warm_misses": warm_cache.misses,
                "archive_equal": [result_fingerprint(r) for r in loaded]
                == [result_fingerprint(r) for r in cold.results],
            },
        )

    def checks(self, first: UnitResult, last: UnitResult) -> dict[str, bool]:
        out = super().checks(first, last)
        r = last.results
        out["warm_render_equals_cold"] = r["warm_equals_cold"]
        out["warm_cache_hit_share_is_1"] = r["warm_misses"] == 0 and r["warm_hits"] == len(r["cells"])
        out["archive_round_trip"] = r["archive_equal"]
        out["requests_conserved"] = results_conserved(r["cold"].results)
        return out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# live_loopback
# ----------------------------------------------------------------------
class LiveLoopback(Workload):
    """Open loop: requests leave on the seed's Poisson schedule at
    100 req/s whatever the runtime does, so wall and requests/s are set
    by the schedule and the signal is latency and CPU per request."""

    name = M.LIVE_LOOPBACK
    # Wall is set by the schedule and latency by a 5 ms sleep: both raw.
    # CPU is short bursts between sleeps; it does not follow the hot probe
    # (0.59-0.67 ms per request while that went from 5.7 to 8.4 ms) but
    # moves 1.6x over minutes with how cold a waking core is, which the
    # cold probe follows.
    scaled = ("cpu",)
    SERVICE_S = 0.005
    #: one second at 100 req/s: CPU per request is the noisy number here,
    #: and seven short repeats, a cold probe between each, pin its median
    #: better than three long ones
    REQUESTS = 100
    min_scale = 0.3
    # p95 needs >= 200 post-warm-up samples (ten beyond it): three seconds, not one
    trace_scale = 3.0

    def meter(self) -> Meter:
        return Meter(cold_probe, COLD_REF_S)

    def config(self, scale: float):
        from repro.live.harness import LiveRunConfig

        return LiveRunConfig(
            policy="polling", policy_params={"poll_size": 2},
            workload="poisson_deterministic", workload_params={"mean_service": self.SERVICE_S},
            load=0.125, n_servers=4, n_requests=max(30, int(self.REQUESTS * scale)), seed=self.seed,
            mode="sleep", poll_spin=0.0, time_limit=60.0,
        )

    def setup(self) -> None:
        from repro.live.harness import generate_workload

        cfg = self.config(self.scale)
        generate_workload(cfg)
        build_cluster(cfg.sim_config())

    def unit(self, meter: Meter, scale: float | None = None) -> UnitResult:
        from repro.live.harness import run_loopback

        cfg = self.config(self.scale if scale is None else max(scale, self.min_scale))
        live = meter.run("run_loopback", run_loopback, cfg)
        summary = live.summary
        return UnitResult(
            requests=cfg.n_requests,
            failed=int(summary["n_failed"]),  # real requests on real sockets
            sim_failed=0,
            # wall-clock latencies never repeat; the inputs do
            fingerprint=hashlib.sha256(live.service_times.tobytes()).hexdigest()[:16],
            latencies_ms=[summary["p50_response_time"] * 1e3],
            results=live,
        )

    def checks(self, first: UnitResult, last: UnitResult) -> dict[str, bool]:
        out = super().checks(first, last)
        live = last.results
        out["requests_conserved"] = conservation_ok(
            live.config, live.summary["n_measured"], live.summary["n_failed"]
        )
        return out


BY_NAME = {
    cls.name: cls
    for cls in (ExactCore, BroadcastFanout, HardenedStack, FastScale, CampaignSweep, LiveLoopback)
}

"""Persistent performance trajectory: schema-versioned BENCH_*.json.

Five PRs of benches printed throughput numbers and threw them away; this
module makes the trajectory durable. Two artifact kinds share one
envelope::

    {"schema_version": 1, "kind": "engines" | "scale", ...}

- ``BENCH_engines.json`` (:func:`engine_trajectory`): events/sec and
  wall-clock for every engine x cluster size on a fixed policy — the
  microscopic view of the scheduler hot path.
- ``BENCH_scale.json`` (:func:`scale_trajectory`): requests/sec for the
  exact heap engine vs the numpy fast path at large N, the derived
  per-policy speedups, and the mean-field cross-check cells — the
  macroscopic "can we run thousands of servers" view (ROADMAP item 1).

Committed baselines live in ``benchmarks/baselines/``;
:func:`check_scale_regression` compares *speedups* (a wall-clock ratio,
so largely machine-independent) against a baseline with a relative
tolerance, which is what CI's ``scale-smoke`` step enforces.

:func:`validate_bench` accepts both this envelope and raw
pytest-benchmark output (a ``benchmarks`` list), so ``repro
validate-bench`` can gate every BENCH file the Makefile produces —
failing loudly on empty or schema-broken output instead of printing
and succeeding.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_simulation
from repro.sim.fastpath import FASTPATH_POLICIES

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchValidationError",
    "engine_trajectory",
    "scale_trajectory",
    "save_bench",
    "load_bench",
    "validate_bench",
    "check_scale_regression",
    "render_bench",
]

BENCH_SCHEMA_VERSION = 1

#: speedup floor the scale bench must clear on its headline policies
#: (ISSUE 6 acceptance: >= 10x requests/sec over heap at N=1000)
SCALE_SPEEDUP_FLOOR = 10.0
SCALE_FLOOR_POLICIES = ("random", "broadcast")


class BenchValidationError(ValueError):
    """A BENCH_*.json artifact is empty or schema-invalid."""


def _timed_cell(config: SimulationConfig) -> dict[str, Any]:
    """Run one config and fold it into a throughput entry."""
    started = time.perf_counter()
    result = run_simulation(config)
    wall = time.perf_counter() - started
    return {
        "engine": config.engine,
        "policy": config.policy,
        "n_servers": config.n_servers,
        "n_requests": config.n_requests,
        "wall_seconds": wall,
        "events_executed": result.events_executed,
        "events_per_sec": result.events_executed / wall,
        "requests_per_sec": config.n_requests / wall,
        "mean_response_time_ms": result.mean_response_time * 1e3,
    }


def engine_trajectory(
    sizes: Sequence[int] = (16, 100, 1000),
    base_requests: int = 20_000,
    fast_multiplier: int = 10,
    policy: str = "random",
    seed: int = 0,
    load: float = 0.9,
) -> dict[str, Any]:
    """Throughput of every engine across cluster sizes (one policy).

    Exact engines run ``base_requests``; the fast path runs
    ``fast_multiplier`` times as many so its wall-clock stays
    measurable. ``events_per_sec`` means heap/calendar *events* for the
    exact engines and batch *ticks* for the fast path — compare engines
    on ``requests_per_sec``.
    """
    entries = []
    for n_servers in sizes:
        base = SimulationConfig(
            policy=policy,
            workload="poisson_exp",
            load=load,
            n_servers=n_servers,
            n_requests=base_requests,
            seed=seed,
        )
        for engine in ("heap", "calendar"):
            entries.append(_timed_cell(base.with_updates(engine=engine)))
        entries.append(
            _timed_cell(
                base.with_updates(
                    engine="fast", n_requests=base_requests * fast_multiplier
                )
            )
        )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "engines",
        "policy": policy,
        "load": load,
        "seed": seed,
        "entries": entries,
    }


def scale_trajectory(
    n_servers: int = 1_000,
    heap_requests: int = 20_000,
    fast_requests: int = 200_000,
    policies: Sequence[str] = FASTPATH_POLICIES,
    seed: int = 0,
    load: float = 0.9,
    meanfield: bool = True,
) -> dict[str, Any]:
    """Large-N heap-vs-fast throughput plus the mean-field cross-check.

    Every policy the fast engine supports is timed by default, so the
    committed baseline backs each per-policy speedup the docs quote.
    Speedups are requests/sec ratios at identical (policy, N); the
    mean-field cells reuse :func:`repro.experiments.parity.
    meanfield_check` so the perf artifact and the validation tier can
    never drift apart.
    """
    policy_params: dict[str, dict[str, Any]] = {
        "random": {},
        "polling": {"poll_size": 2},
        "broadcast": {"mean_interval": 0.01},
        "stale_jsq": {"update_interval": 0.02},
    }
    entries = []
    speedups: dict[str, float] = {}
    for policy in policies:
        base = SimulationConfig(
            policy=policy,
            policy_params=policy_params.get(policy, {}),
            workload="poisson_exp",
            load=load,
            n_servers=n_servers,
            seed=seed,
        )
        heap_cell = _timed_cell(
            base.with_updates(engine="heap", n_requests=heap_requests)
        )
        fast_cell = _timed_cell(
            base.with_updates(engine="fast", n_requests=fast_requests)
        )
        entries += [heap_cell, fast_cell]
        speedups[policy] = (
            fast_cell["requests_per_sec"] / heap_cell["requests_per_sec"]
        )

    meanfield_cells = []
    meanfield_ok = True
    if meanfield:
        from repro.experiments.parity import meanfield_check, meanfield_suite

        report = meanfield_check(meanfield_suite(n_servers=n_servers, seed=seed))
        meanfield_ok = report.ok
        meanfield_cells = [
            {
                "policy": cell.config.policy,
                "n_servers": cell.config.n_servers,
                "load": cell.config.load,
                "predicted_ms": cell.predicted * 1e3,
                "simulated_ms": cell.simulated * 1e3,
                "rel_error": cell.rel_error,
                "tolerance": report.tolerance,
            }
            for cell in report.cells
        ]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "scale",
        "n_servers": n_servers,
        "load": load,
        "seed": seed,
        "entries": entries,
        "speedups": speedups,
        "meanfield": meanfield_cells,
        "meanfield_ok": meanfield_ok,
    }


def save_bench(data: dict[str, Any], path: str | Path) -> Path:
    """Validate and write a bench artifact (atomic enough for CI)."""
    validate_bench(data, source=str(path))
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read and validate a bench artifact."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchValidationError(f"{path}: bench file does not exist") from None
    except json.JSONDecodeError as error:
        raise BenchValidationError(f"{path}: not valid JSON ({error})") from None
    validate_bench(data, source=str(path))
    return data


def _require(condition: bool, source: str, message: str) -> None:
    if not condition:
        prefix = f"{source}: " if source else ""
        raise BenchValidationError(prefix + message)


def validate_bench(data: Any, source: str = "") -> str:
    """Check a bench artifact's schema; returns its kind.

    Accepts the repo envelope (``schema_version`` + ``entries``) and raw
    pytest-benchmark files (a non-empty ``benchmarks`` list) — kind
    ``"pytest-benchmark"``. Raises :class:`BenchValidationError` on
    anything empty or malformed.
    """
    _require(isinstance(data, dict), source, f"expected a JSON object, got {type(data).__name__}")
    if "benchmarks" in data and "schema_version" not in data:
        benches = data["benchmarks"]
        _require(isinstance(benches, list), source, "'benchmarks' must be a list")
        _require(len(benches) > 0, source, "pytest-benchmark output is empty")
        for i, bench in enumerate(benches):
            stats = bench.get("stats") if isinstance(bench, dict) else None
            _require(
                isinstance(stats, dict) and "mean" in stats,
                source,
                f"benchmarks[{i}] has no stats.mean",
            )
            mean = stats["mean"]
            _require(
                isinstance(mean, (int, float)) and math.isfinite(mean) and mean > 0,
                source,
                f"benchmarks[{i}].stats.mean is not a positive finite number",
            )
        return "pytest-benchmark"

    _require("schema_version" in data, source, "missing schema_version")
    _require(
        data["schema_version"] == BENCH_SCHEMA_VERSION,
        source,
        f"schema_version {data['schema_version']!r} != {BENCH_SCHEMA_VERSION}",
    )
    kind = data.get("kind")
    _require(kind in ("engines", "scale"), source, f"unknown kind {kind!r}")
    entries = data.get("entries")
    _require(isinstance(entries, list) and len(entries) > 0, source, "entries missing or empty")
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), source, f"entries[{i}] is not an object")
        for field in ("engine", "policy", "n_servers", "n_requests", "wall_seconds", "requests_per_sec"):
            _require(field in entry, source, f"entries[{i}] missing {field!r}")
        rate = entry["requests_per_sec"]
        _require(
            isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0,
            source,
            f"entries[{i}].requests_per_sec is not a positive finite number",
        )
    if kind == "scale":
        speedups = data.get("speedups")
        _require(
            isinstance(speedups, dict) and len(speedups) > 0,
            source,
            "scale artifact has no speedups",
        )
        for policy, speedup in speedups.items():
            _require(
                isinstance(speedup, (int, float)) and math.isfinite(speedup) and speedup > 0,
                source,
                f"speedups[{policy!r}] is not a positive finite number",
            )
    return str(kind)


def _rates_moved(baseline: dict[str, Any], current: dict[str, Any], policy: str) -> str:
    """Both engines' requests/sec for ``policy``, baseline -> current."""

    def rate(run: dict[str, Any], engine: str) -> str:
        for entry in run.get("entries", []):
            if entry.get("policy") == policy and entry.get("engine") == engine:
                return f"{entry['requests_per_sec']:.0f}"
        return "?"

    return ", ".join(
        f"{engine} {rate(baseline, engine)} -> {rate(current, engine)} req/s"
        for engine in ("heap", "fast")
    )


def check_scale_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.25,
) -> list[str]:
    """Compare a scale run against a committed baseline.

    Returns failure messages (empty = pass): a policy regresses when
    its fast-vs-heap speedup drops more than ``tolerance`` below the
    baseline's, or falls below the absolute :data:`SCALE_SPEEDUP_FLOOR`
    on the headline policies. The gate is a *ratio*, so a faster heap
    reads the same as a slower fast engine: the failure line carries
    both engines' requests/sec, baseline -> current, to show which
    side moved.
    """
    failures = []
    for policy, base_speedup in baseline.get("speedups", {}).items():
        speedup = current.get("speedups", {}).get(policy)
        if speedup is None:
            failures.append(f"{policy}: missing from current run (baseline {base_speedup:.1f}x)")
            continue
        floor = base_speedup * (1.0 - tolerance)
        if speedup < floor:
            failures.append(
                f"{policy}: speedup {speedup:.1f}x fell below {floor:.1f}x "
                f"(baseline {base_speedup:.1f}x - {tolerance:.0%}; "
                f"{_rates_moved(baseline, current, policy)})"
            )
    for policy in SCALE_FLOOR_POLICIES:
        speedup = current.get("speedups", {}).get(policy)
        if speedup is not None and speedup < SCALE_SPEEDUP_FLOOR:
            failures.append(
                f"{policy}: speedup {speedup:.1f}x below the absolute "
                f"{SCALE_SPEEDUP_FLOOR:.0f}x floor"
            )
    return failures


def render_bench(data: dict[str, Any]) -> str:
    """Human-readable table for either artifact kind."""
    kind = validate_bench(data)
    lines = []
    if kind == "pytest-benchmark":
        lines.append(f"pytest-benchmark output: {len(data['benchmarks'])} benches")
        for bench in data["benchmarks"]:
            lines.append(f"  {bench.get('name', '?')}: mean {bench['stats']['mean'] * 1e3:.3f}ms")
        return "\n".join(lines)
    title = "engine trajectory" if kind == "engines" else "scale trajectory"
    lines.append(
        f"== {title} (schema v{data['schema_version']}, load={data.get('load', '?'):.0%}) =="
    )
    lines.append(
        f"{'policy':<10} {'engine':<9} {'N':>6} {'requests':>9} "
        f"{'wall':>8} {'req/s':>10} {'ev/s':>11}"
    )
    for entry in data["entries"]:
        lines.append(
            f"{entry['policy']:<10} {entry['engine']:<9} {entry['n_servers']:>6} "
            f"{entry['n_requests']:>9} {entry['wall_seconds']:>7.2f}s "
            f"{entry['requests_per_sec']:>10.0f} "
            f"{entry.get('events_per_sec', float('nan')):>11.0f}"
        )
    if kind == "scale":
        speedups = ", ".join(
            f"{policy}={speedup:.1f}x" for policy, speedup in sorted(data["speedups"].items())
        )
        lines.append(f"fast-vs-heap speedups: {speedups}")
        for cell in data.get("meanfield", []):
            marker = "ok" if cell["rel_error"] <= cell["tolerance"] else "FAIL"
            lines.append(
                f"mean-field [{marker}] {cell['policy']} N={cell['n_servers']}: "
                f"sim={cell['simulated_ms']:.3f}ms pred={cell['predicted_ms']:.3f}ms "
                f"err={cell['rel_error']:.2%}"
            )
    return "\n".join(lines)

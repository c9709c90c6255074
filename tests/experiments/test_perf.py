"""The scale gate: its failure line and what it covers (experiments/perf.py)."""

import inspect
from pathlib import Path

from repro.experiments.perf import (
    check_scale_regression,
    load_bench,
    scale_trajectory,
)
from repro.sim.fastpath import FASTPATH_POLICIES

BASELINE = Path(__file__).parents[2] / "benchmarks" / "baselines" / "BENCH_scale.json"


def scale_run(heap_rate, fast_rate):
    return {
        "entries": [
            {"policy": "broadcast", "engine": "heap", "requests_per_sec": heap_rate},
            {"policy": "broadcast", "engine": "fast", "requests_per_sec": fast_rate},
        ],
        "speedups": {"broadcast": fast_rate / heap_rate},
    }


def test_ratio_failure_names_both_engines_rates():
    """The gate is fast/heap, so a faster heap trips it: the line must
    show that the heap moved and the fast engine did not."""
    baseline = scale_run(2_796.0, 148_007.0)
    faster_heap = scale_run(3_800.0, 148_000.0)
    (failure,) = check_scale_regression(faster_heap, baseline)
    assert failure == (
        "broadcast: speedup 38.9x fell below 39.7x (baseline 52.9x - 25%; "
        "heap 2796 -> 3800 req/s, fast 148007 -> 148000 req/s)"
    )


def test_within_tolerance_passes():
    assert check_scale_regression(scale_run(3_000.0, 148_000.0), scale_run(2_796.0, 148_007.0)) == []


def test_scale_bench_times_every_fast_engine_policy_by_default():
    """`repro scale` and `make scale-smoke` call scale_trajectory with
    its defaults, so the default is what the committed baseline gates."""
    default = inspect.signature(scale_trajectory).parameters["policies"].default
    assert tuple(default) == FASTPATH_POLICIES


def test_committed_scale_baseline_backs_every_fast_engine_policy():
    baseline = load_bench(BASELINE)
    assert set(baseline["speedups"]) == set(FASTPATH_POLICIES)
    cells = {(entry["policy"], entry["engine"]) for entry in baseline["entries"]}
    assert cells == {(p, e) for p in FASTPATH_POLICIES for e in ("heap", "fast")}


def test_policy_missing_from_current_run_fails_the_gate():
    """A baseline policy the current run did not time is a failure, not
    a skip — dropping a policy from the bench cannot pass silently."""
    baseline = load_bench(BASELINE)
    current = dict(baseline, speedups={"random": baseline["speedups"]["random"]})
    failures = check_scale_regression(current, baseline)
    assert sorted(line.split(":")[0] for line in failures) == [
        "broadcast", "polling", "stale_jsq",
    ]


def test_committed_baseline_keeps_table_select_off_the_interpreter():
    """At N=1000 an O(N)-Python ``select`` put heap stale_jsq at 0.12x
    heap random (6.6k vs 53k req/s); the numpy table argmin holds it
    near 0.5x. Both cells are timed in one run on one host, so the ratio
    is host-independent enough to pin in the committed file."""
    heap = {
        entry["policy"]: entry["requests_per_sec"]
        for entry in load_bench(BASELINE)["entries"]
        if entry["engine"] == "heap" and entry["n_servers"] == 1000
    }
    assert heap["stale_jsq"] >= 0.3 * heap["random"]

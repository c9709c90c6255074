"""Tests of the benchmark suite itself.

Run explicitly (tier-1 ``testpaths`` does not reach this directory)::

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import metrics as M  # noqa: E402
import run as suite  # noqa: E402
import tracing  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_span_tree():
    #   root [0, 10]
    #     a [1, 4]
    #       a1 [2, 3]
    #     b [5, 9]
    #       b1 [5, 6]   b2 [7, 9]
    start = [0, 1, 2, 5, 5, 7]
    end = [10, 4, 3, 9, 6, 9]
    parent = [-1, 0, 1, 0, 3, 3]
    dur, own = tracing.self_time_arrays(start, end, parent)
    assert dur.tolist() == [10, 3, 1, 4, 1, 2]
    assert own.tolist() == [3, 2, 1, 1, 1, 2]
    assert own.sum() == dur[0]  # self times partition the root


def test_self_time_takes_out_the_tracers_cost_and_never_goes_negative():
    start = [0.0, 1.0, 3.0]
    end = [10.0, 2.0, 3.1]
    parent = [-1, 0, 0]
    _, own = tracing.self_time_arrays(start, end, parent, inner=0.25, outer=0.5)
    # root: 10 - 0.25 own inner - (1 + 0.5) - (0.1 + 0.5); leaves: dur - inner, floored at 0
    assert own.tolist() == pytest.approx([7.65, 0.75, 0.0])


def test_tracer_records_parents_and_requests():
    tracer = tracing.Tracer()
    with tracer.span("bench.root"):
        with tracer.span("sim.outer", req=7):
            with tracer.span("net.inner"):
                pass
        with tracer.span("sim.outer"):
            pass
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert list(tracer.req) == [-1, 7, -1, -1]
    rows = tracer.by_name()
    assert rows["sim.outer"]["count"] == 2
    total_self = sum(r["self_s"] for r in rows.values())
    assert total_self == pytest.approx(rows["bench.root"]["total_s"])
    assert tracer.head(limit=2)[1][0] == "sim.outer"


def test_patched_wrappers_are_restored_even_on_error():
    class Box:
        def poke(self, x):
            if x < 0:
                raise ValueError(x)
            return x + 1

    original = Box.__dict__["poke"]
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.patched([(Box, "poke", "bench.poke", lambda _s, x: x)]):
            assert Box().poke(4) == 5
            Box().poke(-1)
    assert Box.__dict__["poke"] is original
    assert list(tracer.req) == [4, -1]
    assert all(e > 0 for e in tracer.end)  # the span of the failing call closed too


def test_layer_shares_sum_to_one_and_unknown_layers_fall_to_bench():
    by_name = {
        "sim.run": {"self_s": 2.0},
        "sim.at": {"self_s": 1.0},
        "net.send": {"self_s": 1.0},
        "core.select": {"self_s": 2.0},
        "cluster.system.ServiceCluster._on_arrival": {"self_s": 1.0},
        "cluster.server.enqueue": {"self_s": 1.0},
        "cluster.reliability.ReliabilityEngine._hedge": {"self_s": 1.0},
        "prototype.something": {"self_s": 0.5},
        "bench.cell": {"self_s": 0.5},
    }
    shares = tracing.layer_shares(by_name, set(M.SHARE_METRICS))
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sim"] == pytest.approx(0.3)
    assert shares["cluster.lifecycle"] == pytest.approx(0.1)
    assert shares["cluster.server"] == pytest.approx(0.1)
    assert shares["cluster.subsystem"] == pytest.approx(0.1)
    assert shares["bench"] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "n, expected",
    [(9, 0.0), (19, 0.0), (20, 50.0), (99, 50.0), (100, 90.0), (270, 95.0), (999, 95.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_needs_ten_samples_beyond_it(n, expected):
    assert harness.highest_percentile(n) == expected


def test_totals_scale_by_the_time_weighted_probe():
    quiet = harness.Slice("a", wall=1.0, cpu=0.9, probe_s=harness.K_REF_S)
    slow = harness.Slice("b", wall=3.0, cpu=2.7, probe_s=2 * harness.K_REF_S)
    assert quiet.wall_ref == pytest.approx(1.0)
    assert slow.wall_ref == pytest.approx(1.5)
    totals = harness.Totals([quiet, slow])
    assert totals.wall == pytest.approx(4.0)
    # mean probe weighted by slice length: (1*1 + 3*2) / 4 = 1.75 K_REF
    assert totals.factor == pytest.approx(1 / 1.75)
    assert totals.cpu_ref == pytest.approx(3.6 / 1.75)


def test_meter_shares_probes_between_adjacent_slices():
    meter = harness.Meter()
    assert meter.run("one", lambda: 1) == 1
    meter.run("two", time.sleep, 0.001)
    assert [s.name for s in meter.slices] == ["one", "two"]
    assert len(meter.probes) == 3
    assert meter.slices[1].wall >= 0.001


def test_meter_reads_against_the_probe_it_is_given():
    readings = iter([2.0, 4.0])
    meter = harness.Meter(lambda: next(readings), k_ref=1.5)
    meter.run("burst", time.sleep, 0.001)
    # mean reading 3.0 on a host whose reference reads 1.5: twice as slow
    assert meter.slices[0].factor == pytest.approx(0.5)
    assert meter.since(0).factor == pytest.approx(0.5)


def test_live_loopback_reads_cpu_against_the_cold_probe_and_wall_raw():
    import workloads

    live = workloads.LiveLoopback(0)
    assert live.scaled == ("cpu",)
    assert live.meter().probe_fn is harness.cold_probe and live.meter().k_ref == harness.COLD_REF_S
    assert workloads.ExactCore(0).meter().probe_fn is harness.probe
    assert 0.0 < harness.cold_probe() < 0.05  # CPU seconds per burst, sleeps not counted


def test_summarize_reports_median_quartiles_and_count():
    summary = harness.summarize([4.0, 1.0, 3.0, 2.0, 5.0], "s")
    assert (summary["value"], summary["n"], summary["unit"]) == (3.0, 5, "s")
    assert summary["q1"] < summary["value"] < summary["q3"]
    assert harness.iqr_share(summary) == pytest.approx((summary["q3"] - summary["q1"]) / 3.0)
    assert harness.summarize([2.5], "s")["q1"] == 2.5


def test_a_request_the_simulated_cluster_fails_is_not_lost():
    import workloads
    from repro.experiments import SimulationConfig

    cfg = SimulationConfig(n_requests=1000, warmup_fraction=0.1)
    # 100 in the warm-up window, 3 failed by the simulated cluster: all accounted for
    assert workloads.lost_requests(cfg, n_measured=897, n_failed=3) == 0
    assert workloads.conservation_ok(cfg, n_measured=897, n_failed=3)
    # a failed request may also sit in the window: a surplus is not a loss
    assert workloads.lost_requests(cfg, n_measured=898, n_failed=3) == 0
    # two requests with no outcome at all are the program's failures
    assert workloads.lost_requests(cfg, n_measured=895, n_failed=3) == 2
    assert not workloads.conservation_ok(cfg, n_measured=895, n_failed=3)


# ----------------------------------------------------------------------
# tables and manifest
# ----------------------------------------------------------------------
def test_names_units_and_limits():
    names = [w.name for w in M.WORKLOADS] + [m.name for m in M.END_TO_END] + [m.name for m in M.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in (*M.END_TO_END, *M.PER_LAYER))
    assert 2 <= len(M.WORKLOADS) <= 8
    assert 1 <= len(M.END_TO_END) <= 16
    assert 1 <= len(M.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in M.WORKLOADS)
    assert all(m.better in ("lower", "higher") for m in (*M.END_TO_END, *M.PER_LAYER))
    assert all(0 < m.bound <= 0.25 for m in M.END_TO_END)
    setup = next(m for m in M.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in M.END_TO_END)


def test_every_per_layer_metric_names_its_layer_home_and_target():
    packages = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()} | {"bench"}
    for m in M.PER_LAYER:
        assert m.layer in packages, m.name
        assert m.home and set(m.home) <= set(M.WORKLOAD_NAMES), m.name
        assert m.moves, m.name
    assert set(M.SHARE_METRICS.values()) <= {m.name for m in M.PER_LAYER}


def test_benchmark_json_restates_the_tables():
    assert MANIFEST == suite.manifest()
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/suite"]
    assert MANIFEST["command"] == ["python3", "benchmarks/suite/run.py"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _report(scale: dict[str, float], spread: float = 0.01) -> dict:
    workloads = {}
    for w in M.WORKLOAD_NAMES:
        metrics = {}
        for m in M.END_TO_END:
            v = 10.0 * scale.get(m.name, 1.0)
            samples = [v * (1 - spread), v, v * (1 + spread)]
            metrics[m.name] = harness.summarize(samples, m.unit)
        workloads[w] = {"metrics": metrics, "fingerprint": "f"}
    return {"meta": {"commit": "x", "seed": 0}, "workloads": workloads}


def test_compare_passes_an_a_a_pair_and_flags_a_regression_in_either_direction():
    base = _report({})
    rows, ok = suite.compare_reports(base, _report({}))
    assert ok and {r["verdict"] for r in rows} == {"ok"}
    assert len(rows) == len(M.WORKLOADS) * len(M.END_TO_END)

    rows, ok = suite.compare_reports(base, _report({"wall_s": 1.5}))
    assert not ok
    worse = {r["metric"] for r in rows if r["verdict"] == "WORSE"}
    assert worse == {"wall_s"}

    # higher-is-better: a drop is the regression, a rise is not
    rows, ok = suite.compare_reports(base, _report({"requests_per_s": 0.5}))
    assert not ok and {r["metric"] for r in rows if r["verdict"] == "WORSE"} == {"requests_per_s"}
    _, ok = suite.compare_reports(base, _report({"requests_per_s": 1.5}))
    assert ok


def test_compare_reports_unresolved_when_noise_exceeds_the_bound():
    noisy = _report({}, spread=0.9)
    rows, ok = suite.compare_reports(noisy, noisy)
    assert ok  # unresolved is not a regression
    assert {r["verdict"] for r in rows} == {"unresolved"}


# ----------------------------------------------------------------------
# the command, end to end, at smoke size
# ----------------------------------------------------------------------
def _run(*argv: str, cwd: Path = ROOT, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_and_emits_exactly_the_manifest_names(tmp_path, trace):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = _run("benchmarks/suite/run.py", "--smoke", "--seed", "5", "--trace", str(trace), "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 30, f"smoke took {elapsed:.1f}s"
    report = json.loads(out.read_text())
    expected = [m["name"] for m in MANIFEST["per_layer" if trace else "end_to_end"]]
    assert list(report["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    for name, detail in report["workloads"].items():
        assert list(detail["metrics"]) == expected, name
        assert all(detail["checks"].values()), (name, detail["checks"])
        assert all(np.isfinite(m["value"]) for m in detail["metrics"].values()), name
    if trace:
        for name in M.WORKLOAD_NAMES:
            trace_file = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
            assert trace_file["sections"] and trace_file["sections"][0]["spans"]
        for m in M.PER_LAYER:  # measured where it is homed
            for name in m.home:
                assert m.name in report["workloads"][name]["measured"]


def test_driver_form_prints_the_result_object_last():
    done = _run(
        "benchmarks/suite/run.py", "--workload", "fast_scale", "--seed", "3",
        "--seconds", "1", "--trace", "0", "--scale", "0.1", "--setup-samples", "1",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    for m in MANIFEST["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_exits_non_zero_without_a_program_to_measure(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("benchmarks/suite/run.py", "--workload", "exact_core", "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()

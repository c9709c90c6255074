"""Tests for the overload campaign driver and its config plumbing."""

import pytest

from repro.experiments import SimulationConfig, load_results
from repro.experiments.cache import ResultCache
from repro.experiments.overload import (
    DEFAULT_OFFERED_LOADS,
    STATIC_VS_ADAPTIVE,
    overload_cluster_params,
    overload_control_params,
    overload_scenario_spec,
)
from repro.experiments.config import param_keys
from repro.experiments.runner import build_cluster

QUICK = dict(
    policies=[("random", "random", {})],
    offered_loads=(1.5,),
    n_servers=4,
    n_requests=200,
    seed=0,
)


def run_campaign(**run_kwargs):
    return overload_scenario_spec(**QUICK).run(parallel=False, **run_kwargs)


def test_unknown_overload_params_key_rejected():
    with pytest.raises(ValueError, match="overload_params"):
        SimulationConfig(overload_params={"sojourn_targit": 0.1})


def test_overload_params_accepted_and_marked():
    config = SimulationConfig(overload_params=overload_control_params())
    assert set(config.overload_params) <= param_keys("overload_params")
    assert config.describe().endswith("+overload")
    # Cache keys must distinguish adaptive from static runs.
    from repro.experiments import config_key

    assert config_key(config) != config_key(SimulationConfig())


def test_build_cluster_installs_controllers():
    config = SimulationConfig(
        n_requests=50, overload_params=overload_control_params()
    )
    cluster, _ = build_cluster(config)
    assert cluster.overload is not None
    assert all(server.overload is not None for server in cluster.servers)
    plain, _ = build_cluster(SimulationConfig(n_requests=50))
    assert plain.overload is None


def test_campaign_grid_and_report_shape(tmp_path):
    report = run_campaign(archive=str(tmp_path / "runs.json"))
    # 2 modes x 1 policy x 1 load
    assert len(report.results) == len(STATIC_VS_ADAPTIVE)
    assert len(report.table.rows) == len(STATIC_VS_ADAPTIVE)
    for column in ("mode", "policy", "load", "goodput_pct", "p95_ms",
                   "shed_pct", "rejected", "shed", "nacks", "timeouts",
                   "retries", "failed", "withdrawals"):
        assert column in report.table.columns
    by_mode = {row["mode"]: row for row in report.table.rows}
    assert set(by_mode) == {"static", "adaptive"}
    assert by_mode["static"]["shed"] == 0
    assert 0.0 <= by_mode["adaptive"]["goodput_pct"] <= 100.0
    # Every cell ran the zero-draw chaos spec so counters are populated
    # for the static legs too.
    assert all(r.config.chaos_params == {"loss": 0.0} for r in report.results)
    # mode_comparison: one line per non-static cell.
    comparison = report.mode_comparison()
    assert len(comparison) == 1
    assert "adaptive vs static" in comparison[0]
    assert "goodput" in report.render()
    # Archive round-trips through the standard results format.
    loaded = load_results(tmp_path / "runs.json")
    assert len(loaded) == len(report.results)
    assert loaded[0].config == report.results[0].config


def test_campaign_second_run_served_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = run_campaign(cache=cache)
    assert cache.misses == len(first.results)
    cache_again = ResultCache(tmp_path / "cache")
    second = run_campaign(cache=cache_again)
    assert cache_again.hits == len(second.results)
    assert cache_again.misses == 0
    assert first.table.rows == second.table.rows


def test_default_grid_covers_sub_and_past_saturation():
    assert min(DEFAULT_OFFERED_LOADS) < 1.0 < max(DEFAULT_OFFERED_LOADS)
    assert 2.0 in DEFAULT_OFFERED_LOADS


def test_cluster_params_include_the_shared_static_bound():
    params = overload_cluster_params()
    assert params["server_max_queue"] == 64
    assert params["availability"] is True
    # Both campaign modes must run the same static bound: the adaptive
    # leg composes with it, never replaces it.
    for _mode, overload_params in STATIC_VS_ADAPTIVE:
        if overload_params:
            assert "server_max_queue" not in overload_params

"""Autoscale campaign plumbing: config keys, grid shape, cache reuse.

The simulation-level acceptance claims live in
``tests/integration/test_autoscale.py``; this module covers the
campaign skin — ``dispatcher_params``/``autoscaler_params`` plumbing
through :class:`SimulationConfig` and ``build_cluster``, the scenario
grid the campaign expands to, the report columns, and the
content-addressed cache contract.
"""

import pytest

from repro.experiments.autoscale import (
    DEFAULT_AUTOSCALE_LOADS,
    DEFAULT_AUTOSCALE_POLICIES,
    DISPATCHER_FAULTS,
    autoscale_cluster_params,
    autoscale_dispatcher_params,
    autoscale_scaling_params,
    autoscale_scenario_spec,
)
from repro.experiments.cache import ResultCache, config_key
from repro.experiments.config import SimulationConfig
from repro.experiments.io import load_results
from repro.experiments.runner import build_cluster

QUICK = dict(
    policies=DEFAULT_AUTOSCALE_POLICIES[:1],
    offered_loads=(0.8,),
    faults=DISPATCHER_FAULTS[:1],
    n_servers=4,
    n_requests=120,
)


def run_campaign(**run_kwargs):
    return autoscale_scenario_spec(**QUICK).run(parallel=False, **run_kwargs)


def test_unknown_dispatcher_params_key_rejected():
    with pytest.raises(ValueError, match="dispatcher_params"):
        SimulationConfig(dispatcher_params={"bogus": 1})
    with pytest.raises(ValueError, match="autoscaler_params"):
        SimulationConfig(autoscaler_params={"bogus": 1})


def test_tier_and_scaling_params_accepted_and_marked():
    config = SimulationConfig(
        cluster_params=autoscale_cluster_params(),
        dispatcher_params=autoscale_dispatcher_params(),
        autoscaler_params=autoscale_scaling_params(16),
    )
    described = config.describe()
    assert "+dispatchers" in described and "+autoscale" in described
    # Cache keys must distinguish tier/scaled runs from plain ones.
    assert config_key(config) != config_key(SimulationConfig())


def test_build_cluster_installs_tier_and_autoscaler():
    config = SimulationConfig(
        n_requests=50,
        cluster_params=autoscale_cluster_params(),
        dispatcher_params=autoscale_dispatcher_params(),
        autoscaler_params=autoscale_scaling_params(16),
    )
    cluster, _ = build_cluster(config)
    assert cluster.dispatchers is not None
    assert len(cluster.dispatchers.dispatchers) == 3
    assert cluster.autoscaler is not None
    assert cluster.autoscaler.min_servers == 4
    plain, _ = build_cluster(SimulationConfig(n_requests=50))
    assert plain.dispatchers is None and plain.autoscaler is None


def test_spec_grid_shape_and_quick_trim():
    spec = autoscale_scenario_spec()
    cells = spec.expand()
    assert len(cells) == (
        len(DEFAULT_AUTOSCALE_POLICIES) * len(DEFAULT_AUTOSCALE_LOADS)
        * 2 * len(DISPATCHER_FAULTS)
    )
    # every cell routes through the tier; both modes carry admission
    assert all(c.config.dispatcher_params for c in cells)
    assert all(c.config.overload_params for c in cells)
    modes = {c.mode for c in cells}
    assert modes == {"static", "autoscaled"}
    quick = autoscale_scenario_spec(quick=True).expand()
    assert len(quick) == 2 * 2 * 2 * 2
    assert {c.policy for c in quick} == {"random", "polling-3"}


def test_campaign_grid_and_report_shape(tmp_path):
    report = run_campaign(archive=str(tmp_path / "runs.json"))
    assert len(report.results) == 2  # static + autoscaled
    for column in ("mode", "policy", "load", "fault", "goodput_pct",
                   "p95_ms", "mean_active", "goodput_per_server",
                   "failed", "timeouts", "failovers", "ups", "downs"):
        assert column in report.table.columns
    by_mode = {row["mode"]: row for row in report.table.rows}
    assert set(by_mode) == {"static", "autoscaled"}
    # the static leg is charged its full pool
    assert by_mode["static"]["mean_active"] == QUICK["n_servers"]
    assert by_mode["autoscaled"]["mean_active"] <= QUICK["n_servers"]
    comparison = report.mode_comparison()
    assert len(comparison) == 1
    assert "autoscaled vs static" in comparison[0]
    assert "goodput/server" in report.render()
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
    assert min(DEFAULT_AUTOSCALE_LOADS) < 1.0 < max(DEFAULT_AUTOSCALE_LOADS)
    assert 2.0 in DEFAULT_AUTOSCALE_LOADS
    # the fault axis spans no-fault and dispatcher-crash intensities
    values = [value for _, _, value in DISPATCHER_FAULTS]
    assert 0.0 in values and max(values) > 0.0


def test_cluster_params_require_availability():
    # scale actions actuate via soft-state publish/withdrawal
    assert autoscale_cluster_params()["availability"] is True

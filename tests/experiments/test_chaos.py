"""Tests for the chaos campaign driver and its config plumbing."""

import math

import pytest

from repro.cluster import ChaosSpec, ReliabilityPolicy
from repro.experiments import SimulationConfig, load_results
from repro.experiments.cache import ResultCache
from repro.experiments.chaos import (
    DEFAULT_INTENSITIES,
    DEFAULT_POLICIES,
    NAIVE_VS_HARDENED,
    chaos_cluster_params,
    chaos_params_for,
    chaos_scenario_spec,
    hardened_reliability_params,
)
from repro.experiments.config import param_keys


def test_unknown_cluster_params_key_rejected():
    with pytest.raises(ValueError, match="cluster_params"):
        SimulationConfig(cluster_params={"n_serverz": 4})


def test_unknown_chaos_params_key_rejected():
    with pytest.raises(ValueError, match="chaos_params"):
        SimulationConfig(chaos_params={"losss": 0.1})


def test_unknown_reliability_params_key_rejected():
    with pytest.raises(ValueError, match="reliability_params"):
        SimulationConfig(reliability_params={"hedge_quantil": 0.9})


def test_reliability_params_accepted_and_marked():
    config = SimulationConfig(reliability_params=hardened_reliability_params())
    assert set(config.reliability_params) <= param_keys("reliability_params")
    assert config.describe().endswith("+reliability")
    # Cache keys must distinguish hardened from naive runs.
    from repro.experiments import config_key

    naive = SimulationConfig()
    assert config_key(config) != config_key(naive)


def test_allowed_params_accepted():
    config = SimulationConfig(
        cluster_params=chaos_cluster_params(),
        chaos_params=chaos_params_for(1.0),
    )
    assert set(config.cluster_params) <= param_keys("cluster_params")
    assert set(config.chaos_params) <= param_keys("chaos_params")
    assert config.describe().endswith("+chaos")


def test_zero_intensity_is_zero_fault_spec():
    assert chaos_params_for(0.0) == {"loss": 0.0}
    assert chaos_params_for(-1.0) == {"loss": 0.0}
    spec = ChaosSpec(**chaos_params_for(0.0))
    assert spec == ChaosSpec()


def test_intensity_scales_knobs():
    half = chaos_params_for(0.5, n_servers=16)
    full = chaos_params_for(1.0, n_servers=16)
    assert 0 < half["loss"] < full["loss"] <= 0.08
    assert half["storm_size"] < full["storm_size"]
    assert full["partitions"] == 1


@pytest.mark.parametrize(
    "intensity", [13.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308]
)
def test_an_intensity_that_scales_loss_past_one_is_refused(intensity):
    """``2 * intensity`` overflowed ``int(round(...))`` for the largest floats."""
    with pytest.raises(ValueError, match="scales loss past 1"):
        chaos_params_for(intensity)
    assert chaos_params_for(12.5)["loss"] == 1.0


def small_campaign(cache=None, archive=None, **kwargs):
    kwargs.setdefault("policies", DEFAULT_POLICIES[:2])
    kwargs.setdefault("intensities", (0.0, 1.0))
    kwargs.setdefault("n_requests", 300)
    kwargs.setdefault("n_servers", 4)
    return chaos_scenario_spec(**kwargs).run(
        parallel=False, cache=cache, archive=archive
    )


def test_campaign_shape_and_baseline_normalization():
    report = small_campaign()
    assert len(report.table.rows) == 4  # 2 policies x 2 intensities
    for row in report.table.rows:
        if row["intensity"] == 0.0:
            assert row["vs_baseline"] == pytest.approx(1.0)
            assert row["msg_lost"] == 0
        else:
            assert row["msg_lost"] > 0
    assert [r.config.label for r in report.results] == [
        f"chaos {label} I={i:g}"
        for label in ("random", "polling-3")
        for i in (0.0, 1.0)
    ]


def test_campaign_is_deterministic():
    first = small_campaign()
    second = small_campaign()
    assert first.table.rows == second.table.rows


def test_campaign_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    fresh = small_campaign(cache=cache)
    assert cache.misses == 4 and cache.hits == 0
    cached = small_campaign(cache=cache)
    assert cache.hits == 4
    assert fresh.table.rows == cached.table.rows
    for a, b in zip(fresh.results, cached.results):
        assert a.config == b.config
        assert a.chaos_counters == b.chaos_counters
        assert a.p95_response_time == b.p95_response_time


def test_campaign_archive(tmp_path):
    archive = tmp_path / "chaos.json"
    report = small_campaign(archive=str(archive))
    reloaded = load_results(archive)
    assert [r.config for r in reloaded] == [r.config for r in report.results]
    assert [r.chaos_counters for r in reloaded] == [
        r.chaos_counters for r in report.results
    ]


def test_default_grid_covers_five_policies():
    assert len(DEFAULT_POLICIES) == 5
    # tail-append contract: the legacy triple stays in front so the
    # [:1]/[:2] slices used all over this suite keep their meaning
    assert [p[1] for p in DEFAULT_POLICIES[:3]] == ["random", "polling", "broadcast"]
    assert {p[1] for p in DEFAULT_POLICIES[3:]} == {"jiq", "least_connections"}
    assert DEFAULT_INTENSITIES[0] == 0.0


# ----------------------------------------------------------------------
# reliability axis: naive vs hardened under identical fault schedules
# ----------------------------------------------------------------------

def test_hardened_params_are_a_valid_enabled_policy():
    policy = ReliabilityPolicy(**hardened_reliability_params())
    assert policy.enabled


def test_naive_vs_hardened_campaign_shape():
    report = small_campaign(
        policies=DEFAULT_POLICIES[:1], reliability_modes=NAIVE_VS_HARDENED
    )
    # 1 policy x 2 intensities x 2 modes.
    assert len(report.table.rows) == 4
    assert [row["mode"] for row in report.table.rows] == [
        "naive", "naive", "hardened", "hardened",
    ]
    # Multi-mode grids suffix the mode into the label so archives keep
    # one unambiguous label per cell.
    labels = [r.config.label for r in report.results]
    assert labels == [
        f"chaos random I={i:g} {mode}"
        for mode in ("naive", "hardened")
        for i in (0.0, 1.0)
    ]
    # Only the hardened leg carries reliability params.
    assert not any(
        r.config.reliability_params for r in report.results[:2]
    )
    assert all(r.config.reliability_params for r in report.results[2:])


def test_single_mode_campaign_keeps_legacy_labels():
    """The default (single-mode) grid must keep its historical labels so
    existing archives and caches stay addressable."""
    report = small_campaign(policies=DEFAULT_POLICIES[:1])
    assert [r.config.label for r in report.results] == [
        "chaos random I=0", "chaos random I=1",
    ]
    assert report.mode_comparison() == []


def test_mode_comparison_renders_deltas():
    report = small_campaign(
        policies=DEFAULT_POLICIES[:1], reliability_modes=NAIVE_VS_HARDENED
    )
    comparison = report.mode_comparison()
    # One comparison line per nonzero-intensity cell.
    assert len(comparison) == 1
    assert comparison[0].startswith("hardened vs naive | random I=1:")
    rendered = report.render()
    assert "Reliability modes (identical fault schedules)" in rendered
    assert comparison[0] in rendered

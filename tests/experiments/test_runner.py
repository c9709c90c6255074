"""Tests for the experiment runner and parallel sweeps."""

import numpy as np
import pytest

from repro.experiments import SimulationConfig, parallel_sweep, run_simulation
from repro.experiments.runner import full_load_rho_for


def small(policy="random", **kwargs):
    defaults = dict(
        policy=policy, workload="poisson_exp", load=0.7,
        n_servers=4, n_requests=800, seed=2,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def test_run_simulation_summary_fields():
    result = run_simulation(small())
    assert result.n_measured == 720  # 10% warmup dropped
    assert result.mean_response_time > 0.05  # at least the mean service time
    assert result.nominal_rho == 0.7
    assert result.events_executed > 0
    assert result.message_counts["request"] == 800
    assert sum(result.server_counts) == 720


def test_result_ms_properties():
    result = run_simulation(small())
    assert result.mean_response_time_ms == pytest.approx(
        result.mean_response_time * 1e3
    )


def test_polling_counters_exported():
    result = run_simulation(small(policy="polling", policy_params={"poll_size": 2}))
    assert result.policy_counters["polls_sent"] == 1600


def test_simulation_model_has_no_stolen_cpu():
    result = run_simulation(small(policy="polling", policy_params={"poll_size": 2}))
    assert result.stolen_cpu == 0.0


def test_prototype_model_steals_cpu_and_calibrates():
    config = small(
        policy="polling", policy_params={"poll_size": 2},
        model="prototype", n_requests=600,
    )
    result = run_simulation(config)
    assert result.stolen_cpu > 0.0
    # load is interpreted against the calibrated full-load point
    assert result.nominal_rho != config.load
    assert result.nominal_rho == pytest.approx(
        config.load * full_load_rho_for(config), rel=1e-9
    )


def test_full_load_rho_cached():
    config = small(model="prototype")
    first = full_load_rho_for(config)
    second = full_load_rho_for(config)
    assert first == second


def test_explicit_full_load_rho_short_circuits():
    config = small(model="prototype", full_load_rho=0.5, load=0.8)
    result = run_simulation(config)
    assert result.nominal_rho == pytest.approx(0.4)


def test_serial_sweep_matches_individual_runs():
    configs = [small(seed=s) for s in (1, 2, 3)]
    swept = parallel_sweep(configs, parallel=False)
    individual = [run_simulation(c) for c in configs]
    for a, b in zip(swept, individual):
        assert a.mean_response_time == b.mean_response_time


def test_parallel_sweep_matches_serial():
    configs = [small(seed=s) for s in (1, 2, 3, 4)]
    serial = parallel_sweep(configs, parallel=False)
    parallel = parallel_sweep(configs, parallel=True, max_workers=2)
    for a, b in zip(serial, parallel):
        assert a.mean_response_time == b.mean_response_time
        assert a.config.seed == b.config.seed


def test_empty_sweep():
    assert parallel_sweep([]) == []


def test_workload_scaled_to_requested_load():
    """The generated stream's offered load matches the config."""
    from repro.experiments.runner import build_cluster

    cluster, rho = build_cluster(small(load=0.65))
    assert rho == 0.65
    gaps = np.diff(np.concatenate([[0.0], cluster._arrival_times]))
    mean_service = cluster._service_times.mean()
    offered = mean_service / (gaps.mean() * cluster.n_servers)
    assert offered == pytest.approx(0.65, rel=1e-9)

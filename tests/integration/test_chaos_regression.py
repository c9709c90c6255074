"""Deterministic chaos regression: fixed seed, fixed numbers, both engines.

A fixed-seed crash-storm + partition + straggler campaign must produce
bit-identical metrics under the heap and calendar engines, on repeat
runs, and — with sufficient ``max_retries`` — complete every request
despite the injected faults.
"""

import numpy as np
import pytest

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.chaos import chaos_cluster_params

CHAOS_PARAMS = {
    "loss": 0.08,
    "duplicate": 0.04,
    "jitter_mean": 0.0005,
    "stragglers": 1,
    "straggle_factor": 4.0,
    "partitions": 1,
    "partition_servers": 2,
    "storms": 1,
    "storm_size": 2,
}

POLICIES = [
    ("polling", {"poll_size": 3, "discard_slow": True}),
    ("broadcast", {"mean_interval": 0.05}),
]


def chaos_config(policy, policy_params, engine="heap"):
    return SimulationConfig(
        policy=policy,
        policy_params=policy_params,
        workload="poisson_exp",
        load=0.9,
        n_servers=8,
        n_requests=1500,
        seed=42,
        engine=engine,
        cluster_params=chaos_cluster_params(max_retries=60),
        chaos_params=dict(CHAOS_PARAMS),
    )


@pytest.mark.parametrize("policy,policy_params", POLICIES)
def test_chaos_run_is_bit_identical_across_engines(policy, policy_params):
    heap = run_simulation(chaos_config(policy, policy_params, engine="heap"))
    calendar = run_simulation(chaos_config(policy, policy_params, engine="calendar"))
    assert heap.digest() == calendar.digest(), policy


@pytest.mark.parametrize("policy,policy_params", POLICIES)
def test_chaos_run_is_repeatable(policy, policy_params):
    first = run_simulation(chaos_config(policy, policy_params))
    second = run_simulation(chaos_config(policy, policy_params))
    assert first.digest() == second.digest(), policy


@pytest.mark.parametrize("policy,policy_params", POLICIES)
def test_chaos_faults_fired_and_all_requests_complete(policy, policy_params):
    result = run_simulation(chaos_config(policy, policy_params))
    counters = result.chaos_counters
    # The campaign actually injected faults...
    assert counters["messages_lost"] > 0
    assert counters["messages_duplicated"] > 0
    assert counters["n_chaos_events"] == 3  # straggle + partition + storm
    assert counters["request_timeouts_fired"] > 0
    # ...and with max_retries=60 the loss-recovery machinery absorbed
    # every one of them: nothing lost forever.
    assert result.n_failed == 0
    assert counters["requests_lost"] == 0
    assert np.isfinite(result.mean_response_time)
    assert counters["recovery_max_s"] > 0

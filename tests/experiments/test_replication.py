"""Tests for replicated runs and policy comparison."""

import math

import pytest

from repro.experiments import SimulationConfig, compare_policies, replicate


def base(**kwargs):
    defaults = dict(workload="poisson_exp", load=0.8, n_servers=4,
                    n_requests=600, seed=3)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(base(), n_replications=0)


def test_replicate_runs_distinct_seeds():
    result = replicate(base(policy="random"), n_replications=4, parallel=False)
    assert result.n_replications == 4
    assert len(set(result.per_seed_means)) == 4  # independent samples
    assert 0 < result.half_width < math.inf


def test_single_replication_infinite_interval():
    result = replicate(base(policy="random"), n_replications=1, parallel=False)
    assert math.isinf(result.half_width)


def test_replicate_deterministic():
    a = replicate(base(policy="random"), n_replications=3, parallel=False)
    b = replicate(base(policy="random"), n_replications=3, parallel=False)
    assert a.per_seed_means == b.per_seed_means


def test_row_renders():
    result = replicate(base(policy="random"), n_replications=2, parallel=False)
    text = result.row()
    assert "ms" in text and "(95%, n=2)" in text


def test_compare_policies_sorted_and_separated():
    comparison = compare_policies(
        base(load=0.9, n_requests=2000),
        policies=[
            ("random", "random", {}),
            ("ideal", "ideal", {}),
        ],
        n_replications=3,
        parallel=False,
    )
    labels = [label for label, _ in comparison]
    assert labels[0] == "ideal"  # sorted by mean, oracle wins
    ideal_result = comparison[0][1]
    random_result = comparison[1][1]
    # Every single paired seed agrees, and the oracle's whole interval
    # sits below random's point estimate. (Full non-overlap needs more
    # replications than a unit test should run.)
    assert all(
        i < r for i, r in zip(ideal_result.per_seed_means, random_result.per_seed_means)
    )
    assert ideal_result.mean + ideal_result.half_width < random_result.mean

"""Validate the cluster simulator against closed-form queueing theory.

These are the ground-truth checks that make the figure reproductions
trustworthy: a single simulated server fed Poisson/Exp must behave like
M/M/1; the supermarket model must predict the polling policy's scaling.
Network latency constants are subtracted where theory excludes them.
"""

import numpy as np
import pytest

from repro.analysis import mm1_mean_response_time, supermarket_mean_response_time
from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble
from repro.net import PAPER_NET
from tests.analysis.queueing import mg1_mean_response_time


def run_cluster(policy, n_servers, load, n_requests, seed, service_cv=1.0,
                mean_service=0.02, **kwargs):
    cluster = ServiceCluster(n_servers=n_servers, policy=policy, seed=seed, **kwargs)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    if service_cv == 0.0:
        services = np.full(n_requests, mean_service)
    elif service_cv == 1.0:
        services = rng.exponential(mean_service, n_requests)
    else:
        from repro.workload.distributions import lognormal_from_moments

        services = lognormal_from_moments(mean_service, service_cv * mean_service).sample(
            rng, n_requests
        )
    metrics = assemble(cluster, gaps, services).run()
    mask = metrics.measurement_slice(0.2)
    mean_response = float(metrics.response_time[mask].mean())
    return mean_response - PAPER_NET.request_response_total  # strip network


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_single_server_matches_mm1(rho):
    measured = run_cluster(
        make_policy("random"), n_servers=1, load=rho, n_requests=60_000, seed=101
    )
    expected = mm1_mean_response_time(rho, 0.02)
    assert measured == pytest.approx(expected, rel=0.08)


def test_single_server_md1_pollaczek_khinchine():
    rho = 0.8
    measured = run_cluster(
        make_policy("random"), n_servers=1, load=rho, n_requests=60_000,
        seed=103, service_cv=0.0,
    )
    expected = mg1_mean_response_time(rho, 0.02, service_scv=0.0)
    assert measured == pytest.approx(expected, rel=0.08)


def test_single_server_heavy_tail_pollaczek_khinchine():
    rho = 0.7
    cv = 2.0
    measured = run_cluster(
        make_policy("random"), n_servers=1, load=rho, n_requests=150_000,
        seed=105, service_cv=cv,
    )
    expected = mg1_mean_response_time(rho, 0.02, service_scv=cv * cv)
    assert measured == pytest.approx(expected, rel=0.15)


def test_random_on_cluster_is_parallel_mm1():
    """Random split of Poisson arrivals over k servers = k independent
    M/M/1 queues at the same rho."""
    rho = 0.8
    measured = run_cluster(
        make_policy("random"), n_servers=8, load=rho, n_requests=80_000, seed=107
    )
    expected = mm1_mean_response_time(rho, 0.02)
    assert measured == pytest.approx(expected, rel=0.08)


@pytest.mark.parametrize("d", [2, 3])
def test_polling_close_to_supermarket_mean_field(d):
    """Finite-n (16 servers) polling sits near the n→∞ mean field.

    The poll RTT (290 µs) and 145 µs-stale queue reads bias the
    simulation slightly above theory; accept a one-sided band."""
    rho = 0.9
    measured = run_cluster(
        make_policy("polling", poll_size=d),
        n_servers=16, load=rho, n_requests=60_000, seed=109 + d,
    )
    theory = supermarket_mean_response_time(rho, d, 0.02)
    assert theory * 0.9 < measured < theory * 1.6


def test_ideal_dominates_every_distributed_policy():
    rho, seed = 0.9, 113
    ideal = run_cluster(make_policy("ideal"), 8, rho, 30_000, seed)
    for name, params in [
        ("random", {}),
        ("polling", {"poll_size": 2}),
        ("broadcast", {"mean_interval": 0.05}),
        ("least_connections", {}),
    ]:
        other = run_cluster(make_policy(name, **params), 8, rho, 30_000, seed)
        assert ideal <= other * 1.05, f"{name} beat the oracle"


def test_response_scales_with_load():
    means = [
        run_cluster(make_policy("random"), 4, rho, 20_000, seed=127)
        for rho in (0.3, 0.6, 0.9)
    ]
    assert means[0] < means[1] < means[2]

"""Shared fixtures for policy tests."""

import numpy as np
import pytest

from repro.cluster import ServiceCluster
from repro.experiments.runner import assemble


def build_cluster(policy, n_servers=8, n_clients=3, n_requests=2000, load=0.8,
                  mean_service=0.01, seed=11, **kwargs):
    """A small cluster with an exponential workload at the given load."""
    cluster = ServiceCluster(
        n_servers=n_servers, policy=policy, seed=seed, n_clients=n_clients, **kwargs
    )
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    return assemble(cluster, gaps, services)


@pytest.fixture
def small_cluster_factory():
    return build_cluster

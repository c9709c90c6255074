"""Property-based end-to-end invariants of the cluster simulator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble
from repro.net import PAPER_NET

policy_strategy = st.sampled_from(
    [
        ("random", {}),
        ("round_robin", {}),
        ("ideal", {}),
        ("polling", {"poll_size": 2}),
        ("polling", {"poll_size": 3, "discard_slow": True}),
        ("broadcast", {"mean_interval": 0.05}),
        ("manager", {}),
        ("least_connections", {}),
    ]
)


@given(
    policy=policy_strategy,
    n_servers=st.integers(1, 12),
    n_clients=st.integers(1, 6),
    load=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_every_policy_completes_all_requests(policy, n_servers, n_clients, load, seed):
    name, params = policy
    cluster = ServiceCluster(
        n_servers=n_servers,
        policy=make_policy(name, **params),
        seed=seed,
        n_clients=n_clients,
    )
    rng = np.random.default_rng(seed)
    n = 150
    mean_service = 0.01
    gaps = rng.exponential(mean_service / (n_servers * load), n)
    services = rng.exponential(mean_service, n) + 1e-9
    metrics = assemble(cluster, gaps, services).run()

    # Invariant 1: conservation — every request completes exactly once.
    assert np.isfinite(metrics.response_time).all()
    assert metrics.failed.sum() == 0
    assert metrics.server_counts(n_servers, warmup_fraction=0.0).sum() == n

    # Invariant 2: response time >= service + request/response network.
    floor = cluster._service_times + PAPER_NET.request_response_total
    assert (metrics.response_time >= floor - 1e-12).all()

    # Invariant 3: poll time is non-negative and response includes it.
    assert (metrics.poll_time >= -1e-15).all()
    assert (metrics.response_time >= metrics.poll_time).all()

    # Invariant 4: all servers idle at the end.
    assert all(server.queue_length == 0 for server in cluster.servers)

    # Invariant 5: per-request timestamps are ordered.
    # (dispatch <= enqueue <= start <= completion along the final path)
    assert (metrics.queue_wait >= -1e-12).all()

"""Message-conservation invariants across policies.

Every control protocol has exact message-count identities; violating
any of them indicates a routing or lifecycle bug that summary
statistics would hide.
"""

import numpy as np
import pytest

from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.net import MessageKind


def run(policy, n_requests=1200, seed=71, n_servers=6, n_clients=3, load=0.8):
    cluster = ServiceCluster(
        n_servers=n_servers, policy=policy, seed=seed, n_clients=n_clients
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.01
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    cluster.load_workload(gaps, services)
    cluster.run()
    return cluster


def test_request_response_identity_all_policies():
    for name, params in [
        ("random", {}),
        ("polling", {"poll_size": 2}),
        ("broadcast", {"mean_interval": 0.05}),
        ("manager", {}),
        ("jiq", {}),
    ]:
        cluster = run(make_policy(name, **params))
        counts = cluster.network.message_counts
        assert counts[MessageKind.REQUEST] == 1200, name
        assert counts[MessageKind.RESPONSE] == 1200, name


def test_poll_reply_identity():
    policy = make_policy("polling", poll_size=3)
    cluster = run(policy)
    counts = cluster.network.message_counts
    assert counts[MessageKind.POLL] == counts[MessageKind.POLL_REPLY]
    assert counts[MessageKind.POLL] == 3 * 1200


def test_manager_query_reply_identity():
    cluster = run(make_policy("manager"))
    counts = cluster.network.message_counts
    assert counts[MessageKind.MANAGER_QUERY] == counts[MessageKind.MANAGER_REPLY]
    assert counts[MessageKind.MANAGER_QUERY] == 1200
    # Notifications: one per completed response, minus any still in
    # flight when the run stopped.
    assert 1200 - 5 <= counts[MessageKind.MANAGER_NOTIFY] <= 1200


def test_broadcast_fanout_identity():
    policy = make_policy("broadcast", mean_interval=0.02)
    cluster = run(policy, n_clients=4)
    counts = cluster.network.message_counts
    assert counts[MessageKind.BROADCAST] == policy.broadcasts_sent * 4


def test_availability_publish_fanout():
    policy = make_policy("random")
    cluster = ServiceCluster(
        n_servers=4, policy=policy, seed=3, n_clients=2,
        availability=True, availability_refresh=0.05,
    )
    rng = np.random.default_rng(3)
    gaps = rng.exponential(0.002, 800)
    services = rng.exponential(0.004, 800)
    cluster.load_workload(gaps, services)
    cluster.run()
    counts = cluster.network.message_counts
    publishes = counts[MessageKind.PUBLISH]
    total_published = sum(p.publish_count for p in cluster.publishers.values())
    assert publishes == total_published * 2  # fan-out to 2 clients


def test_simulation_model_sends_no_stray_kinds():
    cluster = run(make_policy("random"))
    kinds = set(cluster.network.message_counts)
    assert kinds == {MessageKind.REQUEST, MessageKind.RESPONSE}

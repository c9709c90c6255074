"""Tests for server admission control (bounded queues)."""

import numpy as np
import pytest

from repro.cluster import Request, ServerNode, ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble
from repro.sim import Simulator


def req(i, service=1.0):
    return Request(i, 99, service, 0.0)


def test_max_queue_validation():
    with pytest.raises(ValueError):
        ServerNode(Simulator(), 0, max_queue=0)


def test_rejects_beyond_bound():
    sim = Simulator()
    server = ServerNode(sim, 0, max_queue=2)
    server.on_complete = lambda s, r: None
    assert server.enqueue(req(0)) is True   # in service
    assert server.enqueue(req(1)) is True   # queued (length 2)
    assert server.enqueue(req(2)) is False  # rejected
    assert server.rejected_count == 1
    assert server.queue_length == 2


def test_admits_again_after_drain():
    sim = Simulator()
    server = ServerNode(sim, 0, max_queue=1)
    server.on_complete = lambda s, r: None
    assert server.enqueue(req(0, 1.0))
    assert not server.enqueue(req(1, 1.0))
    sim.run()
    assert server.enqueue(req(2, 1.0))


def test_unbounded_by_default():
    sim = Simulator()
    server = ServerNode(sim, 0)
    server.on_complete = lambda s, r: None
    for i in range(100):
        assert server.enqueue(req(i))
    assert server.rejected_count == 0


def make_overloaded_cluster(max_queue, n_requests=2000, seed=61, max_retries=3):
    cluster = ServiceCluster(
        n_servers=4,
        policy=make_policy("random"),
        seed=seed,
        n_clients=2,
        server_max_queue=max_queue,
        max_retries=max_retries,
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.01
    gaps = rng.exponential(mean_service / (4 * 1.3), n_requests)  # overload
    services = rng.exponential(mean_service, n_requests)
    assemble(cluster, gaps, services)
    return cluster


def test_overload_with_admission_sheds_load():
    cluster = make_overloaded_cluster(max_queue=10)
    metrics = cluster.run()
    rejected = sum(s.rejected_count for s in cluster.servers)
    assert rejected > 0
    assert metrics.failed.sum() > 0  # some requests shed after retries
    # Accepted requests see bounded queues -> bounded response times.
    accepted = metrics.response_time[np.isfinite(metrics.response_time)]
    assert np.percentile(accepted, 99) < 11 * 0.01 * 4  # ~max_queue * service


def test_overload_without_admission_unbounded_latency():
    bounded = make_overloaded_cluster(max_queue=10, seed=62)
    unbounded = make_overloaded_cluster(max_queue=None, seed=62)
    bounded_metrics = bounded.run()
    unbounded_metrics = unbounded.run()
    accepted = bounded_metrics.response_time[
        np.isfinite(bounded_metrics.response_time)
    ]
    assert np.nanmean(accepted) < 0.3 * np.nanmean(unbounded_metrics.response_time)
    assert unbounded_metrics.failed.sum() == 0  # everything eventually completes


def test_retry_after_rejection_lands_elsewhere():
    """Rejected requests that retry and succeed have retries > 0."""
    cluster = make_overloaded_cluster(max_queue=5, max_retries=8)
    metrics = cluster.run()
    succeeded_after_retry = (metrics.retries > 0) & np.isfinite(metrics.response_time)
    assert succeeded_after_retry.any()

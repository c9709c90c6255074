"""Unit/integration tests for ServiceCluster."""

import numpy as np
import pytest

from repro.cluster import (
    ChaosInjector,
    ChaosSpec,
    ClusterMetrics,
    ServiceCluster,
)
from repro.core import IdealOracle, RandomPolicy, make_policy
from repro.experiments.runner import assemble
from repro.net import MessageKind, PAPER_NET
from repro.sim.engine import SimulationError


def build(policy=None, n_servers=4, n_requests=200, load=0.5, seed=3, installs=None,
          **kwargs):
    """A small cluster; ``installs`` maps subsystem slots to their knobs."""
    cluster = ServiceCluster(
        n_servers=n_servers, policy=policy or RandomPolicy(), seed=seed, **kwargs
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.01
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    return assemble(cluster, gaps, services, **(installs or {}))


def test_constructor_validation():
    with pytest.raises(ValueError):
        ServiceCluster(n_servers=0, policy=RandomPolicy())
    with pytest.raises(ValueError):
        ServiceCluster(n_servers=2, policy=RandomPolicy(), n_clients=0)
    with pytest.raises(ValueError):
        ServiceCluster(n_servers=2, policy=RandomPolicy(), server_speeds=[1.0])


def test_run_without_workload_raises():
    cluster = ServiceCluster(n_servers=2, policy=RandomPolicy())
    with pytest.raises(SimulationError):
        cluster.run()


def test_load_workload_validation():
    cluster = ServiceCluster(n_servers=2, policy=RandomPolicy())
    with pytest.raises(ValueError):
        cluster.load_workload(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        cluster.load_workload(np.array([]), np.array([]))


def test_all_requests_complete():
    cluster = build(n_requests=500)
    metrics = cluster.run()
    assert np.isfinite(metrics.response_time).all()
    assert (metrics.server_id >= 0).all()
    assert metrics.failed.sum() == 0


def test_response_time_includes_network_and_service():
    """response >= request RTT + service time for every request."""
    cluster = build(n_requests=300)
    metrics = cluster.run()
    service = cluster._service_times
    floor = service + PAPER_NET.request_response_total - 1e-12
    assert (metrics.response_time >= floor).all()


def test_conservation_per_server_counts():
    cluster = build(n_requests=400)
    metrics = cluster.run()
    counts = metrics.server_counts(cluster.n_servers, warmup_fraction=0.0)
    assert counts.sum() == 400


def test_instant_policy_has_zero_poll_time():
    cluster = build(policy=IdealOracle(), n_requests=200)
    metrics = cluster.run()
    assert np.allclose(metrics.poll_time, 0.0)


def test_polling_policy_poll_time_at_least_one_udp_rtt():
    cluster = build(policy=make_policy("polling", poll_size=2), n_requests=200)
    metrics = cluster.run()
    assert (metrics.poll_time >= PAPER_NET.udp_rtt - 1e-12).all()


def test_deterministic_across_runs():
    a = build(policy=make_policy("polling", poll_size=2), seed=9, n_requests=300).run()
    b = build(policy=make_policy("polling", poll_size=2), seed=9, n_requests=300).run()
    assert np.array_equal(a.response_time, b.response_time)
    assert np.array_equal(a.server_id, b.server_id)


def test_different_seeds_differ():
    a = build(seed=1, n_requests=300).run()
    b = build(seed=2, n_requests=300).run()
    assert not np.array_equal(a.response_time, b.response_time)


def test_message_accounting_request_response():
    cluster = build(n_requests=100)
    cluster.run()
    counts = cluster.network.message_counts
    assert counts[MessageKind.REQUEST] == 100
    assert counts[MessageKind.RESPONSE] == 100


def test_requests_assigned_round_robin_to_clients():
    cluster = build(n_requests=100, n_clients=4)
    metrics = cluster.run()
    del metrics
    # client node ids start after server ids
    assert len(cluster.clients) == 4


def test_metrics_summary_fields():
    cluster = build(n_requests=300)
    metrics = cluster.run()
    summary = metrics.summary(warmup_fraction=0.1)
    assert summary["n_measured"] == 270
    assert summary["mean_response_time"] > 0
    assert summary["p99_response_time"] >= summary["p50_response_time"]
    with pytest.raises(ValueError):
        metrics.summary(warmup_fraction=1.0)


def test_ideal_beats_random_under_load():
    random_metrics = build(policy=RandomPolicy(), n_requests=3000, load=0.9, seed=5).run()
    ideal_metrics = build(policy=IdealOracle(), n_requests=3000, load=0.9, seed=5).run()
    assert (
        np.nanmean(ideal_metrics.response_time)
        < 0.7 * np.nanmean(random_metrics.response_time)
    )


def test_availability_mode_provides_candidates():
    cluster = build(installs={"availability": {}}, n_requests=200)
    metrics = cluster.run()
    assert metrics.failed.sum() == 0
    client = cluster.clients[0]
    assert cluster.available_servers(client) == list(range(cluster.n_servers))


def test_server_speeds_respected():
    cluster = build(server_speeds=[2.0, 1.0, 1.0, 1.0], n_requests=100)
    assert cluster.servers[0].speed == 2.0
    cluster.run()


# ----------------------------------------------------------------------
# timeout/response/retry races: exactly one outcome per request
# ----------------------------------------------------------------------

class CountingMetrics(ClusterMetrics):
    """Metrics that count ``record()`` calls per request index — a
    double-recorded outcome would silently overwrite in the base class,
    so races are asserted on the call counts, not the arrays."""

    __slots__ = ("records",)

    def __init__(self, n):
        super().__init__(n)
        self.records = {}

    def record(self, request):
        self.records[request.index] = self.records.get(request.index, 0) + 1
        super().record(request)


def _install_counting_metrics(cluster):
    counting = CountingMetrics(cluster.n_requests)
    cluster.metrics = counting
    return counting


def test_late_response_after_terminal_failure_is_ignored():
    """A RESPONSE that arrives after its request already failed
    terminally (every retry burned) must not record a second outcome."""
    n = 5
    cluster = ServiceCluster(
        n_servers=2, policy=RandomPolicy(), seed=0,
        request_timeout=0.01, max_retries=0,
    )
    # Service times far beyond the timeout: every request times out,
    # fails terminally, and its response arrives long after.
    assemble(cluster, np.full(n, 0.001), np.full(n, 0.5))
    counting = _install_counting_metrics(cluster)
    metrics = cluster.run()
    assert metrics.failed.all()
    assert not np.isfinite(metrics.response_time).any()
    # run() stops at the last terminal failure; drain the still-queued
    # service completions so their responses actually arrive late.
    cluster.sim.run()
    assert cluster.stale_responses_ignored == n
    assert counting.records == {i: 1 for i in range(n)}
    assert metrics.failed.all()  # the late responses changed nothing


def test_duplicate_request_deliveries_record_once():
    """Duplicated REQUEST deliveries (chaos) never double-enqueue or
    double-record: at most one live copy per server, one outcome each."""
    cluster = build(n_requests=400, request_timeout=0.2, max_retries=10)
    counting = _install_counting_metrics(cluster)
    ChaosInjector(cluster, spec=ChaosSpec(duplicate=0.5))
    metrics = cluster.run()
    assert cluster.duplicate_deliveries_ignored > 0
    assert counting.records == {i: 1 for i in range(cluster.n_requests)}
    assert (np.isfinite(metrics.response_time) ^ metrics.failed).all()


def test_crash_retry_race_records_single_outcome():
    """A crash-triggered retry racing duplicated deliveries of the same
    request still produces exactly one terminal outcome."""
    cluster = ServiceCluster(
        n_servers=4, n_clients=2, policy=RandomPolicy(), seed=7,
        request_timeout=0.05, max_retries=20,
    )
    rng = np.random.default_rng(7)
    mean_service = 0.005
    gaps = rng.exponential(mean_service / (4 * 0.9), 1500)
    services = rng.exponential(mean_service, 1500)
    assemble(cluster, gaps, services, availability={"refresh": 0.05, "ttl": 0.15})
    counting = _install_counting_metrics(cluster)
    injector = ChaosInjector(cluster, spec=ChaosSpec(duplicate=0.3))
    injector.schedule_crash(1, at=0.2)
    metrics = cluster.run()
    # The race ingredients actually occurred...
    assert cluster.server_loss_retries > 0
    assert cluster.duplicate_deliveries_ignored > 0
    # ...and every request still resolved exactly once.
    assert counting.records == {i: 1 for i in range(cluster.n_requests)}
    assert (np.isfinite(metrics.response_time) ^ metrics.failed).all()

"""Race parity: the sim's delivery-race invariants, on real sockets.

The simulation suite proves exactly-once completion accounting under
late responses, duplicated requests, and crash retries. These tests
port the same invariants to the live runtime with injected datagram
loss/delay/duplication (:class:`~repro.live.faults.LoopbackFaults`) —
wall-clock interleavings vary run to run, which is exactly the point:
the stale-delivery guards must hold under *any* interleaving.
"""

import numpy as np

from repro.cluster.system import ClusterMetrics
from repro.core.registry import make_policy
from repro.experiments.runner import assemble
from repro.live.client import LiveCluster
from repro.live.faults import LoopbackFaults
from repro.live.server import LiveServer
from tests.live.probe import run_for


class CountingMetrics(ClusterMetrics):
    """ClusterMetrics that counts record() calls per request index."""

    def __init__(self, n):
        super().__init__(n)
        self.record_counts = {}

    def record(self, request):
        self.record_counts[request.index] = (
            self.record_counts.get(request.index, 0) + 1
        )
        super().record(request)


def _loopback(clock, n_servers, server_kwargs=None, cluster_kwargs=None,
              n_requests=8, gap=0.005, service=0.001, policy="random"):
    """Start servers and a cluster on ``clock``; return (servers, cluster)."""
    servers = [
        LiveServer(i, clock, mode="sleep", **(server_kwargs or {})) for i in range(n_servers)
    ]
    cluster = LiveCluster(
        {s.node_id: s.address for s in servers},
        make_policy(policy),
        clock,
        n_clients=2,
        **(cluster_kwargs or {}),
    )
    assemble(cluster, np.full(n_requests, gap), np.full(n_requests, service))
    cluster.metrics = CountingMetrics(n_requests)
    return servers, cluster


def _late_response_after_terminal_failure(clock, policy, n_servers=1):
    """Every attempt times out and fails terminally; the responses then
    land late (injected delay) and must not be double-recorded. Returns
    the finished cluster."""
    rng = np.random.default_rng(1)
    _, cluster = _loopback(
        clock, n_servers,
        server_kwargs={"faults": LoopbackFaults(rng, delay_min=0.08, delay_max=0.1)},
        cluster_kwargs={"request_timeout": 0.01, "max_retries": 0},
        n_requests=5, policy=policy,
    )
    summary = cluster.run(20.0).summary(0.0)
    assert summary["n_failed"] == 5  # every attempt timed out
    assert cluster.request_timeouts_fired == 5
    # Now let the delayed responses land on finished requests.
    run_for(clock, 0.2)
    assert cluster.stale_responses_ignored >= 1
    # Exactly-once accounting: one record per request, ever.
    assert cluster.metrics.record_counts == {i: 1 for i in range(5)}
    return cluster


def test_late_response_after_terminal_failure_is_ignored(clock):
    _late_response_after_terminal_failure(clock, "random")


def test_terminal_failure_releases_least_connections_charges(clock):
    """Terminal failure releases per-selector policy state live as in
    the sim: once every request is terminal no charge is outstanding."""
    cluster = _late_response_after_terminal_failure(clock, "least_connections", n_servers=2)
    policy = cluster.policy
    assert policy._charges == {}
    assert {node: int(t.sum()) for node, t in policy._tables.items()} == {
        client.node_id: 0 for client in cluster.clients
    }
    assert policy.verify_scan() is None


def test_duplicate_requests_are_served_at_most_once(clock):
    """Client-side duplication: the server reply cache / queued-id guard
    must keep service execution at-most-once per attempt."""
    rng = np.random.default_rng(2)
    servers, cluster = _loopback(
        clock, 2,
        cluster_kwargs={
            "request_timeout": 2.0,
            "faults": LoopbackFaults(rng, duplicate=0.9),
        },
        n_requests=10,
    )
    summary = cluster.run(20.0).summary(0.0)
    assert summary["n_failed"] == 0
    # Let duplicated datagrams (and cached re-responses) land.
    run_for(clock, 0.1)
    served = sum(s.completed_count for s in servers)
    assert served == 10  # at-most-once: never re-executed
    dups = sum(s.duplicates_ignored for s in servers)
    assert dups >= 1
    assert cluster.metrics.record_counts == {i: 1 for i in range(10)}


def test_crash_mid_run_retries_to_survivor_exactly_once(clock):
    """One of two servers crashes mid-run; timed-out attempts retry and
    every request is recorded exactly once, completed or failed."""
    servers, cluster = _loopback(
        clock, 2,
        cluster_kwargs={"request_timeout": 0.05, "max_retries": 10},
        n_requests=10, gap=0.01,
    )
    clock.after(0.02, servers[0].close)  # crash mid-run
    summary = cluster.run(20.0).summary(0.0)
    assert summary["n_measured"] + summary["n_failed"] == 10
    assert summary["n_measured"] >= 1  # the survivor served work
    # Requests routed at the dead server timed out and retried.
    if summary["n_measured"] < 10 or cluster.request_timeouts_fired:
        assert cluster.request_timeouts_fired >= 1
    assert cluster.metrics.record_counts == {i: 1 for i in range(10)}
    # Every measured request was executed somewhere (a retried
    # request may even execute on both servers — the client-side
    # guard, not the server, is what keeps recording exactly-once).
    served = servers[0].completed_count + servers[1].completed_count
    assert served >= int(summary["n_measured"])

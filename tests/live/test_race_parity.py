"""Race parity: the sim's delivery-race invariants, on real sockets.

The simulation suite proves exactly-once completion accounting under
late responses, duplicated requests, and crash retries. These tests
port the same invariants to the asyncio runtime with injected datagram
loss/delay/duplication (:class:`~repro.live.faults.LoopbackFaults`) —
wall-clock interleavings vary run to run, which is exactly the point:
the stale-delivery guards must hold under *any* interleaving.
"""

import asyncio

import numpy as np

from repro.cluster.system import ClusterMetrics
from repro.core.registry import make_policy
from repro.live.client import LiveCluster
from repro.live.clock import WallClock
from repro.live.faults import LoopbackFaults
from repro.live.server import LiveServer


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


async def _loopback(n_servers, clock_holder, server_kwargs=None, cluster_kwargs=None,
                    n_requests=8, gap=0.005, service=0.001, policy="random"):
    """Start servers + cluster, return (servers, cluster, transports)."""
    loop = asyncio.get_running_loop()
    clock = WallClock(loop)
    clock_holder.append(clock)
    servers, transports = [], []
    for i in range(n_servers):
        server = LiveServer(i, clock, mode="sleep", **(server_kwargs or {}))
        transport, _ = await loop.create_datagram_endpoint(
            lambda s=server: s, local_addr=("127.0.0.1", 0)
        )
        servers.append(server)
        transports.append(transport)
    cluster = LiveCluster(
        {s.node_id: s.address for s in servers},
        make_policy(policy),
        clock,
        n_clients=2,
        **(cluster_kwargs or {}),
    )
    transport, _ = await loop.create_datagram_endpoint(
        lambda: cluster, local_addr=("127.0.0.1", 0)
    )
    transports.append(transport)
    cluster.load_workload(np.full(n_requests, gap), np.full(n_requests, service))
    cluster.metrics = CountingMetrics(n_requests)
    return servers, cluster, transports


def _late_response_after_terminal_failure(policy, n_servers=1):
    """Every attempt times out and fails terminally; the responses then
    land late (injected delay) and must not be double-recorded. Returns
    the finished cluster."""

    async def scenario():
        clocks = []
        rng = np.random.default_rng(1)
        servers, cluster, transports = await _loopback(
            n_servers, clocks,
            server_kwargs={"faults": LoopbackFaults(rng, delay_min=0.08,
                                                    delay_max=0.1)},
            cluster_kwargs={"request_timeout": 0.01, "max_retries": 0},
            n_requests=5, policy=policy,
        )
        try:
            metrics = await asyncio.wait_for(cluster.run(), timeout=20)
            summary = metrics.summary(0.0)
            assert summary["n_failed"] == 5  # every attempt timed out
            assert cluster.request_timeouts_fired == 5
            # Now let the delayed responses land on finished requests.
            await asyncio.sleep(0.2)
            assert cluster.stale_responses_ignored >= 1
            # Exactly-once accounting: one record per request, ever.
            assert cluster.metrics.record_counts == {i: 1 for i in range(5)}
            return cluster
        finally:
            for server in servers:
                server.close()
            for transport in transports:
                transport.close()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def test_late_response_after_terminal_failure_is_ignored():
    _late_response_after_terminal_failure("random")


def test_terminal_failure_releases_least_connections_charges():
    """Terminal failure releases per-selector policy state live as in
    the sim: once every request is terminal no charge is outstanding."""
    cluster = _late_response_after_terminal_failure("least_connections", n_servers=2)
    policy = cluster.policy
    assert policy._charges == {}
    assert {node: int(t.sum()) for node, t in policy._tables.items()} == {
        client.node_id: 0 for client in cluster.clients
    }
    assert policy.verify_scan() is None


def test_duplicate_requests_are_served_at_most_once():
    """Client-side duplication: the server reply cache / queued-id guard
    must keep service execution at-most-once per attempt."""

    async def scenario():
        clocks = []
        rng = np.random.default_rng(2)
        servers, cluster, transports = await _loopback(
            2, clocks,
            cluster_kwargs={
                "request_timeout": 2.0,
                "faults": LoopbackFaults(rng, duplicate=0.9),
            },
            n_requests=10,
        )
        try:
            metrics = await asyncio.wait_for(cluster.run(), timeout=20)
            summary = metrics.summary(0.0)
            assert summary["n_failed"] == 0
            # Let duplicated datagrams (and cached re-responses) land.
            await asyncio.sleep(0.1)
            served = sum(s.completed_count for s in servers)
            assert served == 10  # at-most-once: never re-executed
            dups = sum(s.duplicates_ignored for s in servers)
            assert dups >= 1
            assert cluster.metrics.record_counts == {i: 1 for i in range(10)}
        finally:
            for server in servers:
                server.close()
            for transport in transports:
                transport.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def test_crash_mid_run_retries_to_survivor_exactly_once():
    """One of two servers crashes mid-run; timed-out attempts retry and
    every request is recorded exactly once, completed or failed."""

    async def scenario():
        clocks = []
        servers, cluster, transports = await _loopback(
            2, clocks,
            cluster_kwargs={"request_timeout": 0.05, "max_retries": 10},
            n_requests=10, gap=0.01,
        )
        try:
            loop = asyncio.get_running_loop()
            loop.call_later(0.02, servers[0].close)  # crash mid-run
            metrics = await asyncio.wait_for(cluster.run(), timeout=20)
            summary = metrics.summary(0.0)
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
        finally:
            for server in servers:
                server.close()
            for transport in transports:
                transport.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))

"""Policy in-flight accounting under retries, failures, and hedging.

Regression tests for the dedup-guard audit (ISSUE 10 satellite): a
request that is retried, hedged, NACKed, or terminally failed must
release its policy-local charge exactly once. The least-connections
ledger rewrite (see ``repro/core/least_connections.py``) was driven by
fuzzer-found double-decrements — these tests pin the fixed behaviour at
the cluster level, with the invariant oracle watching live.
"""

import numpy as np
import pytest

from repro.cluster import ChaosInjector, FailureInjector, ServiceCluster
from repro.core import make_policy
from repro.core.least_connections import _COUNTS_KEY
from repro.experiments.runner import assemble
from repro.verify import InvariantOracle


def build_cluster(policy, n_requests=1500, seed=11, load=0.9, installs=None, **kwargs):
    """A soft-state cluster; ``installs`` maps further subsystem slots to
    their knobs."""
    defaults = dict(n_servers=4, n_clients=2, request_timeout=0.1, max_retries=4)
    defaults.update(kwargs)
    cluster = ServiceCluster(policy=policy, seed=seed, **defaults)
    rng = np.random.default_rng(seed)
    mean_service = 0.005
    gaps = rng.exponential(mean_service / (4 * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    return assemble(cluster, gaps, services,
                    availability={"refresh": 0.05, "ttl": 0.15}, **(installs or {}))


def _assert_ledger_drained(cluster):
    policy = cluster.policy
    assert policy.verify_scan() is None
    assert policy._charges == {}
    for client in cluster.clients:
        counts = client.state[_COUNTS_KEY]
        assert int(counts.sum()) == 0, counts
        assert int(counts.min()) >= 0, counts


def test_least_connections_ledger_drains_after_clean_run():
    cluster = build_cluster(make_policy("least_connections"))
    cluster.run()
    _assert_ledger_drained(cluster)


def test_least_connections_counts_survive_crash_and_retries():
    """The original bug: a timeout retry re-dispatches elsewhere, then
    the stale attempt's completion decremented a second cell. A crash
    mid-run forces exactly that interleaving at volume."""
    cluster = build_cluster(make_policy("least_connections"))
    oracle = InvariantOracle(cluster, check_interval=4)
    cluster.install("oracle", oracle)
    injector = FailureInjector(cluster)
    injector.schedule_crash(1, at=0.2)
    metrics = cluster.run()
    assert (metrics.retries > 0).any()  # the race was actually exercised
    assert oracle.scans_run > 0
    _assert_ledger_drained(cluster)


def test_least_connections_counts_with_terminal_failures():
    """Terminal failures (retry budget exhausted) must release the
    charge too — a failed request is no longer outstanding anywhere."""
    cluster = build_cluster(
        make_policy("least_connections"),
        n_requests=800,
        max_retries=1,
        request_timeout=0.03,
    )
    oracle = InvariantOracle(cluster, check_interval=4)
    cluster.install("oracle", oracle)
    injector = FailureInjector(cluster)
    injector.schedule_crash(0, at=0.1)
    injector.schedule_crash(2, at=0.12)
    metrics = cluster.run()
    assert metrics.failed.sum() > 0  # terminal-failure path exercised
    _assert_ledger_drained(cluster)


def test_least_connections_with_hedging_and_nacks():
    """Hedge clones and queue-full NACKs share the dedup guards: with
    tiny server queues + hedging + loss, no interleaving may double
    release a charge (oracle scans every 2 events would catch it)."""
    from repro.cluster import ChaosSpec

    cluster = build_cluster(
        make_policy("least_connections"),
        n_requests=1200,
        load=1.5,
        server_max_queue=2,
        installs={
            "reliability": {"hedge_quantile": 0.9, "breaker_threshold": 3},
            "overload": {"sojourn_target": 0.02, "interval": 0.05},
        },
    )
    oracle = InvariantOracle(cluster, check_interval=2)
    cluster.install("oracle", oracle)
    ChaosInjector(cluster, spec=ChaosSpec(loss=0.05))
    cluster.run()
    assert cluster.rejects_sent > 0  # NACK path exercised
    _assert_ledger_drained(cluster)


def test_retry_moves_charge_instead_of_stacking():
    """Unit-level: two dispatches for one request hold one charge."""
    cluster = build_cluster(make_policy("least_connections"), n_requests=10)
    policy = cluster.policy
    client = cluster.clients[0]
    from repro.cluster.request import Request

    request = Request(index=0, client_id=0, service_time=0.01, arrival_time=0.0)
    policy.notify_dispatch(client, request, 1)
    policy.notify_dispatch(client, request, 3)  # timeout retry elsewhere
    counts = client.state[_COUNTS_KEY]
    assert int(counts.sum()) == 1 and int(counts[3]) == 1 and int(counts[1]) == 0
    policy.notify_complete(client, request)
    policy.notify_complete(client, request)  # duplicate release is a no-op
    assert int(counts.sum()) == 0 and int(counts.min()) == 0


def test_manager_ignores_never_started_requests():
    """Manager regression: notify_complete for a request that never
    reached a server (server_id == -1) must not decrement ``_counts[-1]``
    (the last server's cell, via Python negative indexing)."""
    cluster = build_cluster(make_policy("manager"), n_requests=10)
    policy = cluster.policy
    client = cluster.clients[0]
    from repro.cluster.request import Request

    request = Request(index=0, client_id=0, service_time=0.01, arrival_time=0.0)
    assert request.server_id == -1
    before = policy._counts.copy()
    policy.notify_complete(client, request)
    assert (policy._counts == before).all()

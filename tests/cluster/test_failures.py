"""Failure injection + soft-state recovery tests (paper §3.1 claim)."""

import numpy as np
import pytest

from repro.cluster import ChaosInjector, ChaosSpec, FailureInjector, ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble
from repro.net.message import Message, MessageKind


def build_cluster(policy, n_requests=2000, seed=7, **kwargs):
    defaults = dict(n_servers=4, n_clients=2, request_timeout=0.5, max_retries=10)
    defaults.update(kwargs)
    cluster = ServiceCluster(policy=policy, seed=seed, **defaults)
    rng = np.random.default_rng(seed)
    mean_service = 0.005
    gaps = rng.exponential(mean_service / (4 * 0.5), n_requests)
    services = rng.exponential(mean_service, n_requests)
    return assemble(cluster, gaps, services, availability={"refresh": 0.05, "ttl": 0.15})


def test_crash_marks_server_dead_and_drops_messages():
    cluster = build_cluster(make_policy("random"), n_requests=500)
    injector = FailureInjector(cluster)
    injector.schedule_crash(1, at=0.2)
    metrics = cluster.run()
    assert not cluster.servers[1].alive
    assert 1 in injector.dead
    # All requests still completed (retries routed around the failure).
    assert metrics.failed.sum() == 0
    assert (metrics.retries > 0).any()


def test_crashed_server_leaves_candidate_set_after_ttl():
    cluster = build_cluster(make_policy("random"), n_requests=2000)
    injector = FailureInjector(cluster)
    injector.schedule_crash(2, at=0.3)
    metrics = cluster.run()
    del metrics
    table = cluster.mapping_tables[cluster.clients[0].node_id]
    assert 2 not in table.available("service", 0)


def test_requests_stop_landing_on_dead_server():
    cluster = build_cluster(make_policy("random"), n_requests=3000)
    FailureInjector(cluster).schedule_crash(0, at=0.2)
    metrics = cluster.run()
    # After crash + TTL, server 0 receives nothing.
    arrival = metrics.arrival_time
    late = arrival > 0.6
    assert (metrics.server_id[late] != 0).all()


def test_recovery_rejoins_cluster():
    cluster = build_cluster(make_policy("random"), n_requests=4000)
    injector = FailureInjector(cluster)
    injector.schedule_crash(3, at=0.2)
    injector.schedule_recovery(3, at=1.0)
    metrics = cluster.run()
    assert cluster.servers[3].alive
    late = metrics.arrival_time > 2.0
    # The recovered server serves traffic again.
    assert (metrics.server_id[late] == 3).any()
    assert metrics.failed.sum() == 0


def test_polling_with_discard_survives_crash():
    """Polling needs the discard timeout to ride out a mid-poll crash."""
    policy = make_policy("polling", poll_size=2, discard_slow=True)
    cluster = build_cluster(policy, n_requests=2000)
    FailureInjector(cluster).schedule_crash(1, at=0.25)
    metrics = cluster.run()
    assert metrics.failed.sum() == 0


def test_crash_log_records_events():
    cluster = build_cluster(make_policy("random"), n_requests=1000)
    injector = FailureInjector(cluster)
    injector.schedule_crash(1, at=0.1)
    injector.schedule_recovery(1, at=0.5)
    cluster.run()
    kinds = [(node, kind) for _, node, kind in injector.crash_log]
    assert kinds == [(1, "crash"), (1, "recover")]


def test_double_crash_is_idempotent():
    cluster = build_cluster(make_policy("random"), n_requests=500)
    injector = FailureInjector(cluster)
    injector.schedule_crash(1, at=0.1)
    injector.schedule_crash(1, at=0.11)
    cluster.run()
    assert sum(1 for _, n, k in injector.crash_log if k == "crash") == 1


def test_exhausted_retries_fail_request():
    """With every server dead, requests fail terminally (no hang)."""
    cluster = build_cluster(make_policy("random"), n_requests=50, max_retries=2)
    injector = FailureInjector(cluster)
    for node in range(4):
        injector.schedule_crash(node, at=0.01)
    metrics = cluster.run()
    assert metrics.failed.sum() > 0
    summary = metrics.summary(warmup_fraction=0.0)
    assert summary["n_failed"] == int(metrics.failed.sum())


def test_injector_composes_with_preinstalled_drop_filter():
    """Installing an injector must chain, not clobber, an existing
    drop_filter: both filters stay in effect."""
    cluster = build_cluster(make_policy("random"), n_requests=100)
    custom_drops = []

    def custom_filter(message):
        if message.dst == 99:
            custom_drops.append(message)
            return True
        return False

    cluster.network.drop_filter = custom_filter
    injector = FailureInjector(cluster)
    injector.dead.add(1)

    def probe(dst):
        return cluster.network.drop_filter(
            Message(MessageKind.REQUEST, 0, dst, None, 64, 0.0)
        )

    assert probe(99)  # the pre-existing filter still fires
    assert probe(1)  # the injector's dead-node filter fires too
    assert not probe(2)  # anything neither filter matches passes
    assert len(custom_drops) == 1


def test_straggler_slows_then_recovers():
    """A straggle interval makes a load-aware policy route around the
    slow server, and the speed is fully restored afterwards."""
    cluster = build_cluster(make_policy("least_connections"), n_requests=2000)
    injector = ChaosInjector(cluster)
    injector.schedule_straggle(0, at=0.2, duration=0.5, factor=8.0)
    metrics = cluster.run()
    assert cluster.servers[0].speed == pytest.approx(1.0)
    assert metrics.failed.sum() == 0
    # During the straggle window the straggler's queue builds up, so the
    # least-connections policy sends it far less than the fair share.
    window = (metrics.arrival_time >= 0.2) & (metrics.arrival_time < 0.7)
    finished = window & np.isfinite(metrics.response_time)
    share = (metrics.server_id[finished] == 0).mean()
    fair = 1.0 / cluster.n_servers
    assert share < 0.6 * fair


def test_chaos_schedule_requires_loaded_workload():
    cluster = ServiceCluster(
        n_servers=4, n_clients=2, policy=make_policy("random"), seed=0
    )
    with pytest.raises(ValueError, match="load_workload"):
        ChaosInjector(cluster, spec=ChaosSpec(storms=1))


def test_zero_spec_injector_changes_nothing():
    """A zero-fault ChaosSpec must be observationally identical to no
    injector at all (the campaign's intensity-0 baseline row)."""
    plain = build_cluster(make_policy("random"), n_requests=400)
    baseline = plain.run()
    chaotic = build_cluster(make_policy("random"), n_requests=400)
    injector = ChaosInjector(chaotic, spec=ChaosSpec())
    result = chaotic.run()
    np.testing.assert_array_equal(baseline.response_time, result.response_time)
    np.testing.assert_array_equal(baseline.server_id, result.server_id)
    assert injector.events == []
    assert injector.faults.total_lost() == 0


def test_chaos_spec_validation():
    with pytest.raises(ValueError):
        ChaosSpec(loss=1.5)
    with pytest.raises(ValueError):
        ChaosSpec(straggle_factor=0.0)
    with pytest.raises(TypeError, match="storm_frac"):
        ChaosSpec(storm_frac=0.1)  # a module constant now
    with pytest.raises(ValueError):
        ChaosSpec(storms=-1)

"""Tests for the broadcast policy."""

import numpy as np
import pytest

from repro.core import make_policy
from repro.net import MessageKind
from tests.core.conftest import build_cluster


def test_interval_validation():
    with pytest.raises(ValueError):
        make_policy("broadcast", mean_interval=0.0)


def test_broadcast_messages_fan_out_to_all_clients():
    policy = make_policy("broadcast", mean_interval=0.02)
    cluster = build_cluster(policy, n_clients=3, n_requests=500, load=0.5)
    cluster.run()
    sent = policy.broadcasts_sent
    delivered = cluster.network.message_counts[MessageKind.BROADCAST]
    assert delivered == sent * 3  # one copy per subscribed client


def test_tables_track_announcements():
    policy = make_policy("broadcast", mean_interval=0.01)
    cluster = build_cluster(policy, n_requests=800, load=0.7)
    cluster.run()
    for client in cluster.clients:
        table = client.state["broadcast.table"]
        assert table.shape == (cluster.n_servers,)
        assert (table >= 0).all()


def test_high_frequency_approaches_ideal():
    """At very small intervals broadcast must be close to ideal; at very
    large intervals it must degrade badly (the Figure 3 shape)."""
    results = {}
    for label, interval in [("fast", 0.002), ("slow", 2.0)]:
        policy = make_policy("broadcast", mean_interval=interval)
        cluster = build_cluster(policy, n_requests=4000, load=0.9, seed=31)
        results[label] = np.nanmean(cluster.run().response_time)
    ideal = build_cluster(make_policy("ideal"), n_requests=4000, load=0.9, seed=31)
    ideal_mean = np.nanmean(ideal.run().response_time)
    assert results["fast"] < 2.0 * ideal_mean
    assert results["slow"] > 3.0 * results["fast"]


def _window_concentration(metrics, n_servers, window=50):
    """Mean per-window share of the most popular server (flocking metric)."""
    server_id = metrics.server_id
    fractions = []
    for i in range(0, len(server_id) - window, window):
        chunk = server_id[i : i + window]
        fractions.append(np.bincount(chunk, minlength=n_servers).max() / window)
    return float(np.mean(fractions))


def test_flocking_under_infrequent_broadcasts():
    """Between announcements all clients pile onto the perceived-minimum
    server (§2.2's flocking effect): short-window concentration far
    exceeds the random policy's."""
    policy = make_policy("broadcast", mean_interval=1.0)
    cluster = build_cluster(policy, n_servers=8, n_requests=4000, load=0.9, seed=41)
    flocked = _window_concentration(cluster.run(), 8)
    random_cluster = build_cluster(
        make_policy("random"), n_servers=8, n_requests=4000, load=0.9, seed=41
    )
    spread = _window_concentration(random_cluster.run(), 8)
    assert flocked > 2.0 * spread


def test_intervals_randomized_not_fixed():
    policy = make_policy("broadcast", mean_interval=0.05)
    cluster = build_cluster(policy, n_requests=1500, load=0.5)
    send_times = []
    # Wiretap: subscribe an extra listener; Message.send_time is the
    # publish instant regardless of delivery latency.
    policy._channel.subscribe(999, lambda m: send_times.append((m.send_time, m.src)))
    cluster.run()
    per_server = {}
    for t, src in send_times:
        per_server.setdefault(src, []).append(t)
    gaps = np.concatenate([np.diff(ts) for ts in per_server.values() if len(ts) > 2])
    assert gaps.std() > 0.005  # jittered, not a fixed period
    assert gaps.min() >= 0.025 - 1e-9
    assert gaps.max() <= 0.075 + 1e-9


def test_block_drawn_intervals_match_scalar_draws():
    """The policy draws its intervals 1024 at a time; the announcement
    instants must be the ones one scalar draw per announcement gives
    (the reference below), across several block boundaries."""
    import heapq

    from repro.sim.rng import RngHub

    mean_interval, seed, n_servers = 0.01, 23, 8
    policy = make_policy("broadcast", mean_interval=mean_interval)
    cluster = build_cluster(
        policy, n_servers=n_servers, n_requests=1500, load=0.5, seed=seed
    )
    sent = []
    policy._channel.subscribe(999, lambda m: sent.append((m.send_time, m.src)))
    cluster.run()
    assert len(sent) > 2 * 1024

    rng = RngHub(seed).stream("policy.broadcast.intervals")
    due = [(float(rng.uniform(0.5, 1.5)) * mean_interval, s) for s in range(n_servers)]
    heapq.heapify(due)
    expected = []
    for _ in sent:
        now, server = heapq.heappop(due)
        expected.append((now, server))
        delay = float(rng.uniform(0.5, 1.5)) * mean_interval
        heapq.heappush(due, (now + delay, server))
    assert sent == expected


def test_tables_hold_the_last_announcement_and_its_send_time():
    policy = make_policy("broadcast", mean_interval=0.01)
    cluster = build_cluster(policy, n_servers=5, n_requests=600, load=0.7)
    last = {}
    # Subscribed after the clients: every delivery group ends with it.
    policy._channel.subscribe(999, lambda m: last.__setitem__(m.src, m))
    cluster.run()
    assert sorted(last) == list(range(5))
    for client in cluster.clients:
        for server_id, message in last.items():
            assert client.state["broadcast.table"][server_id] == message.payload[1]
            assert client.state["broadcast.table_time"][server_id] == message.send_time

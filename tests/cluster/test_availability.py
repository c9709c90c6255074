"""Unit tests for the publish/subscribe availability subsystem."""

import numpy as np
import pytest

from repro.cluster import AvailabilityChannel, ServiceMappingTable, ServicePublisher
from repro.net import ConstantLatency, Network
from repro.sim import Simulator


def make_channel(latency=1e-4):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(latency))
    return sim, AvailabilityChannel(net)


def make_publisher(sim, channel, node_id=0, mean_interval=1.0):
    return ServicePublisher(
        sim,
        channel,
        node_id,
        entries=[("svc", 0)],
        mean_interval=mean_interval,
        rng=np.random.default_rng(node_id + 1),
    )


def test_publisher_validation():
    sim, channel = make_channel()
    with pytest.raises(ValueError):
        ServicePublisher(sim, channel, 0, [("s", 0)], 0.0, np.random.default_rng(0))


def test_table_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ServiceMappingTable(sim, ttl=0.0)


def test_publish_reaches_table():
    sim, channel = make_channel()
    table = ServiceMappingTable(sim, ttl=3.0)
    table.subscribe(channel, client_id=100)
    publisher = make_publisher(sim, channel)
    publisher.start()
    sim.run(until=0.01)
    assert table.available("svc", 0) == [0]
    assert table.updates_received >= 1


def test_refresh_interval_randomized_within_bounds():
    sim, channel = make_channel()
    deliveries = []
    channel.subscribe(100, lambda m: deliveries.append(sim.now))
    publisher = make_publisher(sim, channel, mean_interval=1.0)
    publisher.start()
    sim.run(until=20.0)
    gaps = np.diff(deliveries)
    assert (gaps >= 0.5 - 1e-9).all() and (gaps <= 1.5 + 1e-9).all()
    assert gaps.mean() == pytest.approx(1.0, rel=0.2)


def test_soft_state_expires_after_crash():
    sim, channel = make_channel()
    table = ServiceMappingTable(sim, ttl=2.0)
    table.subscribe(channel, 100)
    publisher = make_publisher(sim, channel, mean_interval=0.5)
    publisher.start()
    sim.run(until=5.0)
    assert table.available("svc", 0) == [0]
    publisher.stop()
    sim.run(until=5.0 + 2.5)  # past the TTL with no refreshes
    assert table.available("svc", 0) == []


def test_recovery_after_restart():
    sim, channel = make_channel()
    table = ServiceMappingTable(sim, ttl=1.0)
    table.subscribe(channel, 100)
    publisher = make_publisher(sim, channel, mean_interval=0.3)
    publisher.start()
    sim.run(until=1.0)
    publisher.stop()
    sim.run(until=3.0)
    assert table.available("svc", 0) == []
    publisher.start()
    sim.run(until=3.1)
    assert table.available("svc", 0) == [0]


def test_multiple_publishers_merge():
    sim, channel = make_channel()
    table = ServiceMappingTable(sim, ttl=5.0)
    table.subscribe(channel, 100)
    for node in (3, 1, 2):
        make_publisher(sim, channel, node_id=node, mean_interval=0.5).start()
    sim.run(until=1.0)
    assert table.available("svc", 0) == [1, 2, 3]


def test_unknown_service_empty():
    sim = Simulator()
    table = ServiceMappingTable(sim, ttl=1.0)
    assert table.available("nope", 0) == []


def test_start_is_idempotent():
    sim, channel = make_channel()
    deliveries = []
    channel.subscribe(100, lambda m: deliveries.append(sim.now))
    publisher = make_publisher(sim, channel, mean_interval=10.0)
    publisher.start()
    publisher.start()
    sim.run(until=1.0)
    assert len(deliveries) == 1  # not doubled


# ----------------------------------------------------------------------
# soft-state boundary behavior
# ----------------------------------------------------------------------

def _prime(table, node_id=0, at=0.0):
    """Inject a PUBLISH directly (no network latency) at time ``at``."""
    from repro.net import Message, MessageKind

    table._on_publish(
        Message(MessageKind.PUBLISH, node_id, 100, (node_id, (("svc", 0),), at), 0, at)
    )


def test_entry_alive_exactly_at_ttl_boundary():
    """Expiry is inclusive: an entry last refreshed exactly ``ttl`` ago
    is still available; one instant later it is gone."""
    sim = Simulator()
    table = ServiceMappingTable(sim, ttl=1.0)
    _prime(table, at=0.0)
    seen = {}
    sim.at(1.0, lambda: seen.__setitem__("at_ttl", table.available("svc", 0)))
    sim.at(1.0 + 1e-9, lambda: seen.__setitem__("past_ttl", table.available("svc", 0)))
    sim.run()
    assert seen["at_ttl"] == [0]
    assert seen["past_ttl"] == []


def test_refresh_exactly_at_ttl_extends_lifetime():
    """A refresh landing exactly at the expiry instant keeps the entry
    alive for another full ttl."""
    sim = Simulator()
    table = ServiceMappingTable(sim, ttl=1.0)
    _prime(table, at=0.0)
    seen = {}
    sim.at(1.0, lambda: _prime(table, at=1.0))
    sim.at(1.5, lambda: seen.__setitem__("mid", table.available("svc", 0)))
    sim.at(2.0, lambda: seen.__setitem__("second_ttl", table.available("svc", 0)))
    sim.at(2.0 + 1e-9, lambda: seen.__setitem__("expired", table.available("svc", 0)))
    sim.run()
    assert seen["mid"] == [0]
    assert seen["second_ttl"] == [0]
    assert seen["expired"] == []


def test_silenced_publisher_vanishes_from_all_clients_within_ttl():
    """A publisher whose PUBLISH messages are all lost disappears from
    every client's candidate set within one ttl (the soft-state claim
    under message-level faults, not just clean crashes)."""
    from repro.cluster import ServiceCluster
    from repro.core import make_policy
    from repro.experiments.runner import assemble
    from repro.net.message import MessageKind

    ttl = 0.3
    cluster = ServiceCluster(n_servers=4, n_clients=3, policy=make_policy("random"), seed=11)
    rng = np.random.default_rng(11)
    n = 2000
    gaps = rng.exponential(0.005 / (4 * 0.5), n)
    services = rng.exponential(0.005, n)
    assemble(cluster, gaps, services, availability={"refresh": 0.05, "ttl": ttl})
    # Silence server 0's announcements after the first round; everything
    # else flows.
    cluster.network.drop_filter = (
        lambda m: m.kind is MessageKind.PUBLISH and m.src == 0
    )
    observed = {}

    def snapshot(label):
        observed[label] = {
            client.node_id: cluster.mapping_tables[client.node_id].available("service", 0)
            for client in cluster.clients
        }
    cluster.sim.at(ttl * 0.9, lambda: snapshot("before"))
    cluster.sim.at(ttl * 1.05, lambda: snapshot("after"))
    cluster.run()
    # The construction-time priming keeps server 0 visible almost to the
    # first ttl; one ttl after the last (primed) refresh it is gone from
    # every client, with no crash and no explicit signal.
    for client_id, candidates in observed["before"].items():
        assert 0 in candidates, f"client {client_id} lost server 0 before ttl"
    for client_id, candidates in observed["after"].items():
        assert 0 not in candidates, f"client {client_id} still lists server 0"
        assert set(candidates) == {1, 2, 3}

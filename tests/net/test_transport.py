"""Unit tests for the Network transport and BroadcastChannel."""

import numpy as np
import pytest

from repro.net import (
    BroadcastChannel,
    ConstantLatency,
    MessageKind,
    Network,
    UniformLatency,
)
from repro.sim import Simulator


def make_net(latency=150e-6):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(latency))
    return sim, net


def test_send_delivers_after_latency():
    sim, net = make_net(latency=1e-3)
    delivered = []
    net.send(MessageKind.REQUEST, 0, 1, "payload", delivered.append)
    sim.run()
    assert len(delivered) == 1
    message = delivered[0]
    assert message.payload == "payload"
    assert message.src == 0 and message.dst == 1
    assert sim.now == pytest.approx(1e-3)


def test_send_time_recorded():
    sim, net = make_net()
    sim.after(0.5, lambda: net.send(MessageKind.POLL, 1, 2, None, lambda m: None))
    sim.run()
    assert net.message_counts[MessageKind.POLL] == 1


def test_per_kind_latency_override():
    sim, net = make_net(latency=1.0)
    net.set_latency(MessageKind.POLL, ConstantLatency(1e-6))
    times = {}
    net.send(MessageKind.POLL, 0, 1, None, lambda m: times.setdefault("poll", sim.now))
    net.send(MessageKind.REQUEST, 0, 1, None, lambda m: times.setdefault("req", sim.now))
    sim.run()
    assert times["poll"] == pytest.approx(1e-6)
    assert times["req"] == pytest.approx(1.0)


def test_extra_delay_added():
    sim, net = make_net(latency=1e-3)
    times = []
    net.send(MessageKind.POLL_REPLY, 0, 1, None, lambda m: times.append(sim.now),
             extra_delay=5e-3)
    sim.run()
    assert times == [pytest.approx(6e-3)]


def test_message_and_byte_accounting():
    sim, net = make_net()
    for _ in range(3):
        net.send(MessageKind.POLL, 0, 1, None, lambda m: None)
    net.send(MessageKind.REQUEST, 0, 1, None, lambda m: None, size_bytes=2048)
    assert net.message_counts[MessageKind.POLL] == 3
    assert net.message_counts[MessageKind.REQUEST] == 1
    assert net.byte_counts[MessageKind.REQUEST] == 2048
    assert net.total_messages() == 4
    net.reset_counters()
    assert net.total_messages() == 0


def test_drop_filter_suppresses_delivery_but_counts():
    sim, net = make_net()
    net.drop_filter = lambda m: m.dst == 9
    delivered = []
    net.send(MessageKind.REQUEST, 0, 9, None, delivered.append)
    net.send(MessageKind.REQUEST, 0, 1, None, delivered.append)
    sim.run()
    assert len(delivered) == 1 and delivered[0].dst == 1
    assert net.dropped_counts[MessageKind.REQUEST] == 1
    assert net.message_counts[MessageKind.REQUEST] == 2


def test_broadcast_fanout():
    sim, net = make_net(latency=1e-3)
    channel = BroadcastChannel(net)
    received = []
    for node in (1, 2, 3):
        channel.subscribe(node, lambda m, n=node: received.append((n, m.payload)))
    count = channel.publish(src=0, payload=7)
    sim.run()
    assert count == 3
    assert sorted(received) == [(1, 7), (2, 7), (3, 7)]
    assert net.message_counts[MessageKind.BROADCAST] == 3


def test_broadcast_unsubscribe():
    sim, net = make_net()
    channel = BroadcastChannel(net)
    received = []
    channel.subscribe(1, lambda m: received.append(1))
    channel.subscribe(2, lambda m: received.append(2))
    channel.unsubscribe(1)
    channel.publish(src=0, payload=None)
    sim.run()
    assert received == [2]
    assert channel.subscriber_count == 1


def test_broadcast_channel_custom_kind():
    sim, net = make_net()
    channel = BroadcastChannel(net, kind=MessageKind.PUBLISH)
    channel.subscribe(1, lambda m: None)
    channel.publish(src=0, payload=None)
    assert net.message_counts[MessageKind.PUBLISH] == 1


# ----------------------------------------------------------------------
# same-instant delivery groups (Network.multicast)
# ----------------------------------------------------------------------
LATENCY = 145e-6
NODES = (1, 2, 3, 4)


class StepLog:
    """Stands in for a telemetry step recorder."""

    def __init__(self):
        self.points = []

    def record(self, time, value):
        self.points.append((time, value))


def publish_rounds(model, publishes=5, configure=None):
    """``publishes`` announcements 10 ms apart to ``NODES``; the log is
    every delivery as ``(dst, time, payload, send_time)``."""
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(1.0))
    net.set_latency(MessageKind.BROADCAST, model)
    if configure is not None:
        configure(net)
    channel = BroadcastChannel(net)
    log = []
    for node in NODES:
        channel.subscribe(
            node, lambda m: log.append((m.dst, sim.now, m.payload, m.send_time))
        )
    for i in range(publishes):
        sim.at(0.01 * i, lambda i=i: channel.publish(src=100 + i, payload=i))
    sim.run()
    return sim, net, log


def per_recipient():
    """A model with the same value that is not a ConstantLatency, so
    the transport keeps one event per recipient."""
    return UniformLatency(LATENCY, LATENCY)


def test_group_matches_per_recipient_sends():
    sim_g, net_g, log_g = publish_rounds(ConstantLatency(LATENCY))
    sim_p, net_p, log_p = publish_rounds(per_recipient())
    assert log_g == log_p
    assert [dst for dst, *_ in log_g[: len(NODES)]] == list(NODES)
    assert net_g.message_counts == net_p.message_counts == {MessageKind.BROADCAST: 20}
    assert net_g.byte_counts == net_p.byte_counts
    assert net_g.dropped_counts == net_p.dropped_counts == {}
    # 5 timer events either way; 5 group events against 5 x 4 deliveries
    assert sim_g.events_executed == 5 + 5
    assert sim_p.events_executed - sim_g.events_executed == 5 * (len(NODES) - 1)


def test_group_drops_one_recipient_and_delivers_the_rest():
    def drop_node_3(net):
        net.drop_filter = lambda m: m.dst == 3

    sim_g, net_g, log_g = publish_rounds(ConstantLatency(LATENCY), configure=drop_node_3)
    _, net_p, log_p = publish_rounds(per_recipient(), configure=drop_node_3)
    assert log_g == log_p
    assert sorted({dst for dst, *_ in log_g}) == [1, 2, 4]
    assert net_g.dropped_counts == net_p.dropped_counts == {MessageKind.BROADCAST: 5}
    assert net_g.message_counts == {MessageKind.BROADCAST: 20}
    assert sim_g.events_executed == 5 + 5


def test_unsubscribe_after_publish_still_delivers_in_flight():
    sim, net = make_net(latency=1e-3)
    channel = BroadcastChannel(net)
    received = []
    for node in (1, 2):
        channel.subscribe(node, lambda m: received.append(m.dst))
    channel.publish(src=0, payload=None)
    channel.unsubscribe(1)
    channel.subscribe(3, lambda m: received.append(m.dst))
    sim.run()
    assert received == [1, 2]
    channel.publish(src=0, payload=None)
    sim.run()
    assert received == [1, 2, 2, 3]


@pytest.mark.parametrize(
    "condition, events_per_recipient", [("faults", 1), ("switch", 2), ("stochastic", 1)]
)
def test_one_event_per_recipient_when_arrivals_can_differ(condition, events_per_recipient):
    from repro.net.faults import NetworkFaults
    from repro.net.switch import SwitchedEthernet

    def configure(net):
        if condition == "faults":
            net.faults = NetworkFaults(np.random.default_rng(1))
        elif condition == "switch":
            net.switch = SwitchedEthernet(net.sim, n_ports=8)

    if condition == "stochastic":
        model = UniformLatency(0.5 * LATENCY, 1.5 * LATENCY)
    else:
        model = ConstantLatency(LATENCY)
    sim, net, log = publish_rounds(model, publishes=3, configure=configure)
    assert len(log) == 3 * len(NODES)
    assert net.message_counts == {MessageKind.BROADCAST: 12}
    # the 3 publish timers, then every recipient on its own event(s)
    assert sim.events_executed == 3 + 3 * len(NODES) * events_per_recipient


def test_group_hooks_see_every_recipient():
    traced = []
    inflight = StepLog()

    def observe(net):
        net.deliver_trace = lambda m: traced.append((m.dst, m.payload))
        net.inflight_recorder = inflight

    sim_on, net_on, log_on = publish_rounds(ConstantLatency(LATENCY), configure=observe)
    sim_off, _, log_off = publish_rounds(ConstantLatency(LATENCY))
    assert log_on == log_off
    assert sim_on.events_executed == sim_off.events_executed
    assert traced == [(dst, payload) for dst, _, payload, _ in log_on]
    # one step up per recipient at publish, one down per recipient at delivery
    assert [v for _, v in inflight.points] == [1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0] * 5
    assert inflight.points[3] == (0.0, 4.0) and inflight.points[4] == (LATENCY, 3.0)
    assert net_on._inflight == 0


def test_group_gate_is_decided_at_send_time():
    """Hooks installed while a group is in flight do not see it, exactly
    as a unicast sent before the hook was installed."""
    sim, net = make_net(latency=1e-3)
    channel = BroadcastChannel(net)
    received, traced = [], []
    channel.subscribe(1, received.append)
    channel.publish(src=0, payload="early")
    net.deliver_trace = traced.append
    channel.publish(src=0, payload="late")
    sim.run()
    assert [m.payload for m in received] == ["early", "late"]
    assert [m.payload for m in traced] == ["late"]


def test_nothing_scheduled_without_a_recipient():
    sim, net = make_net()
    empty = BroadcastChannel(net)
    assert empty.publish(src=0, payload=None) == 0
    assert sim.pending == 0
    assert net.message_counts == {} and net.byte_counts == {}

    channel = BroadcastChannel(net)
    for node in (1, 2):
        channel.subscribe(node, lambda m: pytest.fail("dropped message delivered"))
    net.drop_filter = lambda m: True
    assert channel.publish(src=0, payload=None) == 2
    assert sim.pending == 0
    assert net.message_counts == {MessageKind.BROADCAST: 2}
    assert net.dropped_counts == {MessageKind.BROADCAST: 2}
    sim.run()
    assert sim.events_executed == 0


# ----------------------------------------------------------------------
# the flyweight publication (no gate installed)
# ----------------------------------------------------------------------
def retaining_channel(configure=None):
    """Two subscribers that keep every message they are handed."""
    sim, net = make_net(latency=1e-3)
    if configure is not None:
        configure(net)
    channel = BroadcastChannel(net)
    kept = {1: [], 2: []}
    seen_dst = []
    for node in kept:
        channel.subscribe(node, lambda m, node=node: (kept[node].append(m), seen_dst.append(m.dst)))
    return sim, net, channel, kept, seen_dst


def test_ungated_publication_is_one_message_addressed_to_each_subscriber_in_turn():
    sim, net, channel, kept, seen_dst = retaining_channel()
    channel.publish(src=0, payload="a")
    channel.publish(src=0, payload="b")
    sim.run()
    # dst named the recipient while its callback ran ...
    assert seen_dst == [1, 2, 1, 2]
    # ... but the record belongs to the publication: a subscriber that
    # keeps it must copy it.
    assert [m.payload for m in kept[1]] == ["a", "b"]
    assert kept[1][0] is kept[2][0] and kept[1][1] is kept[2][1]
    assert kept[1][0] is not kept[1][1]
    assert net.message_counts == {MessageKind.BROADCAST: 4}
    assert net.byte_counts == {MessageKind.BROADCAST: 4 * 64}


def test_subscriber_added_in_flight_does_not_receive_the_publication():
    sim, net, channel, kept, _ = retaining_channel()
    channel.publish(src=0, payload="early")
    late = []
    channel.subscribe(3, late.append)  # no unsubscribe in between
    sim.run()
    assert [m.payload for m in kept[1]] == [m.payload for m in kept[2]] == ["early"]
    assert late == []
    assert net.message_counts == {MessageKind.BROADCAST: 2}
    channel.publish(src=0, payload="next")
    sim.run()
    assert [m.payload for m in late] == ["next"]


@pytest.mark.parametrize("gate", ["drop_filter", "deliver_trace", "inflight_recorder"])
def test_an_installed_gate_gets_one_message_per_recipient(gate):
    value = {
        "drop_filter": lambda m: False,
        "deliver_trace": lambda m: None,
        "inflight_recorder": StepLog(),
    }[gate]
    sim, net, channel, kept, seen_dst = retaining_channel(lambda net: setattr(net, gate, value))
    channel.publish(src=0, payload="a")
    sim.run()
    assert seen_dst == [1, 2]
    assert kept[1][0] is not kept[2][0]
    assert (kept[1][0].dst, kept[2][0].dst) == (1, 2)
    assert sim.events_executed == 1


def test_reversed_delivery_order_mutant(monkeypatch):
    """One mutant from the lifecycle catalogue (ROADMAP item 1): the
    publication handler delivering in reverse subscriber order.

    Verdict, pinned: the unit-level log comparison kills it; the
    cluster-level ``test_grouped_cell_is_byte_equal_to_per_recipient_cell``
    does **not** — every subscriber of a broadcast cell writes only its
    own client's table and draws nothing, so the order inside one
    instant is not observable in any per-request array or counter.
    """
    from repro.net import transport
    from tests.integration import test_delivery_groups as cluster_level

    def reversed_publication(publication):
        subscribers, message = publication
        for message.dst, on_delivery in reversed(subscribers):
            on_delivery(message)

    monkeypatch.setattr(transport, "_deliver_publication", reversed_publication)
    with pytest.raises(AssertionError):
        test_group_matches_per_recipient_sends()
    cluster_level.test_grouped_cell_is_byte_equal_to_per_recipient_cell("heap")

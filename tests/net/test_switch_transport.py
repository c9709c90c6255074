"""Tests for wiring SwitchedEthernet under the Network transport."""

import numpy as np
import pytest

from repro.net import ConstantLatency, Message, MessageKind, Network, SwitchedEthernet
from repro.sim import Simulator


def make(latency=100e-6, bandwidth=100e6):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(latency))
    net.switch = SwitchedEthernet(sim, n_ports=4, bandwidth_bps=bandwidth,
                                  propagation=0.0)
    return sim, net


def test_switch_adds_serialization_delay():
    sim, net = make()
    times = []
    net.send(MessageKind.REQUEST, 0, 1, None, lambda m: times.append(sim.now),
             size_bytes=1250)  # 100us at 100Mb/s
    sim.run()
    assert times == [pytest.approx(100e-6 + 100e-6)]


def test_switch_contention_serializes_same_port():
    sim, net = make()
    times = []
    for _ in range(3):
        net.send(MessageKind.REQUEST, 0, 1, None, lambda m: times.append(sim.now),
                 size_bytes=1250)
    sim.run()
    # All arrive at the switch at t=100us, then serialize 100us each.
    assert times == [
        pytest.approx(200e-6),
        pytest.approx(300e-6),
        pytest.approx(400e-6),
    ]


def test_no_switch_behaviour_unchanged():
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(1e-3))
    times = []
    net.send(MessageKind.REQUEST, 0, 1, None, lambda m: times.append(sim.now))
    sim.run()
    assert times == [pytest.approx(1e-3)]


def test_drop_filter_applies_before_switch():
    sim, net = make()
    net.drop_filter = lambda m: True
    delivered = []
    net.send(MessageKind.REQUEST, 0, 1, None, delivered.append)
    sim.run()
    assert delivered == []
    # the port was never booked: an empty message crosses without waiting
    empty = Message(MessageKind.REQUEST, 0, 1, None, 0, sim.now)
    assert net.switch.transit(empty, lambda m: None) == sim.now

"""Unit tests for the switched-Ethernet model."""

import pytest

from repro.net import SwitchedEthernet
from repro.net.message import Message, MessageKind
from repro.sim import Simulator


def make_message(dst, size=1000, src=0):
    return Message(MessageKind.REQUEST, src, dst, None, size, 0.0)


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        SwitchedEthernet(sim, n_ports=0)
    with pytest.raises(ValueError):
        SwitchedEthernet(sim, n_ports=4, bandwidth_bps=0)


def test_serialization_delay_100mbps():
    sim = Simulator()
    switch = SwitchedEthernet(sim, n_ports=4, bandwidth_bps=100e6)
    # 1250 bytes = 10000 bits -> 100 us at 100 Mb/s
    assert switch.serialization_delay(1250) == pytest.approx(100e-6)


def test_single_message_timing():
    sim = Simulator()
    switch = SwitchedEthernet(sim, n_ports=4, bandwidth_bps=100e6, propagation=20e-6)
    done = switch.transit(make_message(1, size=1250), lambda m: None)
    assert done == pytest.approx(20e-6 + 100e-6)


def test_same_port_messages_serialize():
    sim = Simulator()
    switch = SwitchedEthernet(sim, n_ports=4, bandwidth_bps=100e6, propagation=0.0)
    deliveries = []
    switch.transit(make_message(1, size=1250), lambda m: deliveries.append(sim.now))
    switch.transit(make_message(1, size=1250), lambda m: deliveries.append(sim.now))
    sim.run()
    assert deliveries[0] == pytest.approx(100e-6)
    assert deliveries[1] == pytest.approx(200e-6)


def test_different_ports_do_not_contend():
    sim = Simulator()
    switch = SwitchedEthernet(sim, n_ports=4, bandwidth_bps=100e6, propagation=0.0)
    deliveries = []
    switch.transit(make_message(1, size=1250), lambda m: deliveries.append((1, sim.now)))
    switch.transit(make_message(2, size=1250), lambda m: deliveries.append((2, sim.now)))
    sim.run()
    assert deliveries == [(1, pytest.approx(100e-6)), (2, pytest.approx(100e-6))]


def test_port_backlog():
    sim = Simulator()
    switch = SwitchedEthernet(sim, n_ports=2, bandwidth_bps=100e6, propagation=0.0)
    assert switch.transit(make_message(1, size=12500), lambda m: None) == pytest.approx(1e-3)
    # the port stays booked for that millisecond: an empty message waits it out
    assert switch.transit(make_message(1, size=0), lambda m: None) == pytest.approx(1e-3)


def test_idle_period_resets_port():
    sim = Simulator()
    switch = SwitchedEthernet(sim, n_ports=2, bandwidth_bps=100e6, propagation=0.0)
    switch.transit(make_message(1, size=1250), lambda m: None)
    sim.run()
    deliveries = []
    sim.at(1.0, lambda: switch.transit(make_message(1, size=1250),
                                       lambda m: deliveries.append(sim.now)))
    sim.run()
    assert deliveries == [pytest.approx(1.0 + 100e-6)]

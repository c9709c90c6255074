"""Unit tests for ClientNode CPU accounting."""

import pytest

from repro.cluster import ClientNode
from repro.sim import Simulator


def test_occupy_when_idle():
    sim = Simulator()
    client = ClientNode(sim, 100)
    assert client.occupy(0.5) == pytest.approx(0.5)
    assert client.cpu_busy_until == pytest.approx(0.5)


def test_occupy_serializes():
    sim = Simulator()
    client = ClientNode(sim, 100)
    client.occupy(0.5)
    # Second piece of work queues behind the first.
    assert client.occupy(0.25) == pytest.approx(0.75)
    assert client.cpu_busy_until == pytest.approx(0.75)


def test_occupy_after_idle_period():
    sim = Simulator()
    client = ClientNode(sim, 100)
    client.occupy(0.1)
    sim.after(1.0, lambda: None)
    sim.run()
    assert client.occupy(0.1) == pytest.approx(0.1)
    assert client.cpu_busy_until == pytest.approx(1.1)


def test_zero_cost_is_free():
    sim = Simulator()
    client = ClientNode(sim, 100)
    assert client.occupy(0.0) == 0.0


def test_negative_cost_rejected():
    sim = Simulator()
    client = ClientNode(sim, 100)
    with pytest.raises(ValueError):
        client.occupy(-0.1)


def test_state_dict_isolated_per_client():
    sim = Simulator()
    a, b = ClientNode(sim, 1), ClientNode(sim, 2)
    a.state["x"] = 1
    assert "x" not in b.state

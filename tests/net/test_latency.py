"""Unit tests for latency models and paper constants."""

import numpy as np
import pytest

from repro.net import (
    ConstantLatency,
    PAPER_NET,
    PaperNetworkConstants,
    UniformLatency,
)


def rng():
    return np.random.default_rng(0)


def test_constant_latency():
    model = ConstantLatency(516e-6)
    assert model.sample(rng()) == 516e-6
    assert model.mean() == 516e-6


def test_constant_latency_validation():
    with pytest.raises(ValueError):
        ConstantLatency(-1e-6)


def test_uniform_latency_bounds_and_mean():
    model = UniformLatency(1e-3, 3e-3)
    samples = np.array([model.sample(rng()) for _ in range(100)])
    assert ((samples >= 1e-3) & (samples <= 3e-3)).all()
    assert model.mean() == pytest.approx(2e-3)


def test_uniform_latency_validation():
    with pytest.raises(ValueError):
        UniformLatency(3e-3, 1e-3)


def test_paper_constants_values():
    """Pin the paper's measured values (µs) so they can't silently drift."""
    assert PAPER_NET.request_response_total == pytest.approx(516e-6)
    assert PAPER_NET.udp_rtt == pytest.approx(290e-6)
    assert PAPER_NET.tcp_rtt_nosetup == pytest.approx(339e-6)
    assert PAPER_NET.discard_timeout == pytest.approx(10e-3)
    assert PAPER_NET.sched_quantum == pytest.approx(10e-3)


def test_paper_constants_derived():
    assert PAPER_NET.request_one_way == pytest.approx(258e-6)
    assert PAPER_NET.poll_one_way == pytest.approx(145e-6)
    assert PAPER_NET.manager_one_way == pytest.approx(169.5e-6)


def test_paper_constants_frozen():
    with pytest.raises(Exception):
        PAPER_NET.udp_rtt = 0.0  # type: ignore[misc]


def test_custom_constants():
    constants = PaperNetworkConstants(udp_rtt=100e-6)
    assert constants.poll_one_way == pytest.approx(50e-6)
    assert constants.request_response_total == pytest.approx(516e-6)

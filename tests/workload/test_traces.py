"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.workload import Trace


def make_trace(n=100, name="t"):
    rng = np.random.default_rng(5)
    return Trace(
        name=name,
        interarrival=rng.exponential(0.1, n),
        service=rng.exponential(0.05, n),
    )


def test_validation_length_mismatch():
    with pytest.raises(ValueError):
        Trace("x", np.ones(3), np.ones(4))


def test_validation_empty():
    with pytest.raises(ValueError):
        Trace("x", np.array([]), np.array([]))


def test_validation_negative_gap():
    with pytest.raises(ValueError):
        Trace("x", np.array([0.1, -0.1]), np.array([1.0, 1.0]))


def test_validation_nonpositive_service():
    with pytest.raises(ValueError):
        Trace("x", np.array([0.1, 0.1]), np.array([1.0, 0.0]))


def test_validation_requires_1d():
    with pytest.raises(ValueError):
        Trace("x", np.ones((2, 2)), np.ones((2, 2)))


def test_len():
    trace = Trace("x", np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.1, 0.1]))
    assert len(trace) == 3


def test_stats_moments():
    trace = make_trace(50_000)
    stats = trace.stats()
    assert stats.n_accesses == 50_000
    assert stats.arrival_interval_mean == pytest.approx(0.1, rel=0.05)
    assert stats.service_time_mean == pytest.approx(0.05, rel=0.05)


def test_head():
    trace = make_trace(100)
    head = trace.head(10)
    assert len(head) == 10
    assert np.array_equal(head.service, trace.service[:10])
    with pytest.raises(ValueError):
        trace.head(0)


def test_head_clamps_to_length():
    trace = make_trace(10)
    assert len(trace.head(100)) == 10


def test_tiled_extends_with_shuffle():
    trace = make_trace(100)
    rng = np.random.default_rng(7)
    tiled = trace.tiled(350, rng=rng)
    assert len(tiled) == 350
    # Total service mass per tile is preserved under shuffling.
    assert tiled.service[:100].sum() == pytest.approx(trace.service.sum())
    assert tiled.service[100:200].sum() == pytest.approx(trace.service.sum())
    # Shuffled tile differs in order.
    assert not np.array_equal(tiled.service[100:200], trace.service)


def test_tiled_without_rng_repeats_exactly():
    trace = make_trace(50)
    tiled = trace.tiled(120)
    assert np.array_equal(tiled.service[50:100], trace.service)


def test_tiled_noop_when_short():
    trace = make_trace(100)
    assert len(trace.tiled(30)) == 30

"""Unit tests for the Eq. 1 bound and the FIFO queue-length machinery."""

import numpy as np
import pytest

from repro.analysis import eq1_upperbound, fifo_queue_length_steps, measure_inaccuracy
from tests.analysis.queueing import eq1_upperbound_series


def test_eq1_values_from_paper():
    # The paper's Figure 2 quotes an upper bound of 1.33 at 50% load.
    assert eq1_upperbound(0.5) == pytest.approx(4.0 / 3.0)
    assert eq1_upperbound(0.9) == pytest.approx(2 * 0.9 / (1 - 0.81))
    assert eq1_upperbound(0.0) == 0.0


def test_eq1_validation():
    with pytest.raises(ValueError):
        eq1_upperbound(1.0)
    with pytest.raises(ValueError):
        eq1_upperbound_series(-0.1)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_eq1_series_matches_closed_form(rho):
    """The brute-force double sum verifies the paper's algebra."""
    assert eq1_upperbound_series(rho) == pytest.approx(eq1_upperbound(rho), rel=1e-6)


def test_fifo_steps_single_job():
    times, queue = fifo_queue_length_steps(np.array([1.0]), np.array([2.0]))
    assert times.tolist() == [1.0, 3.0]
    assert queue.tolist() == [1.0, 0.0]


def test_fifo_steps_back_to_back():
    # Job 2 arrives while job 1 in service: departures at 3 and 5.
    times, queue = fifo_queue_length_steps(
        np.array([1.0, 2.0]), np.array([2.0, 2.0])
    )
    assert times.tolist() == [1.0, 2.0, 3.0, 5.0]
    assert queue.tolist() == [1.0, 2.0, 1.0, 0.0]


def test_fifo_steps_idle_gap():
    times, queue = fifo_queue_length_steps(
        np.array([0.0, 10.0]), np.array([1.0, 1.0])
    )
    assert times.tolist() == [0.0, 1.0, 10.0, 11.0]
    assert queue.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_fifo_departure_before_arrival_at_tie():
    """A job arriving exactly at a departure sees the freed server."""
    times, queue = fifo_queue_length_steps(
        np.array([0.0, 1.0]), np.array([1.0, 1.0])
    )
    # Q never reaches 2: at t=1 the first departs as the second arrives.
    assert queue.max() == 1.0


def test_fifo_queue_never_negative_and_ends_zero():
    rng = np.random.default_rng(2)
    arrivals = np.cumsum(rng.exponential(1.0, 5000))
    services = rng.exponential(0.9, 5000)
    _, queue = fifo_queue_length_steps(arrivals, services)
    assert (queue >= 0).all()
    assert queue[-1] == 0.0


def test_fifo_validation():
    with pytest.raises(ValueError):
        fifo_queue_length_steps(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        fifo_queue_length_steps(np.array([1.0]), np.array([1.0, 2.0]))


def test_fifo_mm1_mean_queue_matches_theory():
    """Long M/M/1 run: time-average queue length ≈ rho/(1-rho)."""
    rng = np.random.default_rng(7)
    n = 400_000
    rho = 0.7
    arrivals = np.cumsum(rng.exponential(1.0, n))
    services = rng.exponential(rho, n)
    times, queue = fifo_queue_length_steps(arrivals, services)
    durations = np.diff(times)
    time_avg = float((queue[:-1] * durations).sum() / durations.sum())
    assert time_avg == pytest.approx(rho / (1 - rho), rel=0.05)


def test_measure_inaccuracy_zero_delay_is_zero():
    rng = np.random.default_rng(3)
    arrivals = np.cumsum(rng.exponential(1.0, 20_000))
    services = rng.exponential(0.5, 20_000)
    times, queue = fifo_queue_length_steps(arrivals, services)
    out = measure_inaccuracy(times, queue, np.array([0.0]), rng)
    assert out[0] == 0.0


def test_measure_inaccuracy_monotone_to_bound():
    """Inaccuracy grows with delay and approaches the Eq. 1 bound."""
    rng = np.random.default_rng(4)
    n = 300_000
    rho = 0.5
    arrivals = np.cumsum(rng.exponential(1.0, n))
    services = rng.exponential(rho, n)
    times, queue = fifo_queue_length_steps(arrivals, services)
    delays = np.array([0.5, 2.0, 50.0, 500.0]) * rho  # in service-time units
    out = measure_inaccuracy(times, queue, delays, rng, n_samples=50_000)
    assert out[0] < out[1] < out[2]
    assert out[3] == pytest.approx(eq1_upperbound(rho), rel=0.1)
    assert out[2] <= eq1_upperbound(rho) * 1.15


def test_measure_inaccuracy_validation():
    times = np.array([0.0, 1.0])
    queue = np.array([1.0, 0.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        measure_inaccuracy(times, queue, np.array([-1.0]), rng)
    with pytest.raises(ValueError):
        measure_inaccuracy(times, queue, np.array([100.0]), rng)

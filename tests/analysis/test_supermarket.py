"""Unit tests for the supermarket mean-field model."""

import numpy as np
import pytest

from repro.analysis import (
    mm1_mean_queue_length,
    mm1_mean_response_time,
    supermarket_fixed_point,
    supermarket_mean_queue_length,
    supermarket_mean_response_time,
)


def test_fixed_point_d1_is_geometric():
    rho = 0.8
    s = supermarket_fixed_point(rho, 1, k_max=10)
    assert np.allclose(s, rho ** np.arange(11))


def test_fixed_point_d2_doubly_exponential():
    rho = 0.9
    s = supermarket_fixed_point(rho, 2, k_max=6)
    expected = rho ** (2.0 ** np.arange(7) - 1.0)
    assert np.allclose(s, expected)


def test_fixed_point_monotone_decreasing():
    s = supermarket_fixed_point(0.95, 3, k_max=20)
    assert (np.diff(s) <= 1e-12).all()
    assert s[0] == 1.0


def test_fixed_point_zero_load():
    s = supermarket_fixed_point(0.0, 2, k_max=4)
    assert s.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_fixed_point_no_overflow_large_k():
    s = supermarket_fixed_point(0.99, 8, k_max=200)
    assert np.isfinite(s).all()
    assert s[-1] == 0.0


def test_mean_queue_length_d1_matches_mm1():
    for rho in (0.3, 0.7, 0.9):
        assert supermarket_mean_queue_length(rho, 1) == pytest.approx(
            mm1_mean_queue_length(rho), rel=1e-9
        )


def test_mean_response_time_d1_matches_mm1():
    for rho in (0.3, 0.7, 0.9):
        assert supermarket_mean_response_time(rho, 1, 0.05) == pytest.approx(
            mm1_mean_response_time(rho, 0.05), rel=1e-9
        )


def test_poll_size_two_captures_most_benefit():
    """Mitzenmacher's headline (and the paper's conclusion #2):
    d=2 is an exponential improvement; d>2 adds much less."""
    rho = 0.9
    t1 = supermarket_mean_response_time(rho, 1)
    t2 = supermarket_mean_response_time(rho, 2)
    t3 = supermarket_mean_response_time(rho, 3)
    t8 = supermarket_mean_response_time(rho, 8)
    assert t1 / t2 > 3.0                      # huge gain from d=1 to d=2
    assert t2 / t3 < 1.35                     # modest gain from 2 to 3
    assert (t3 - t8) < 0.1 * (t1 - t2)        # gains beyond 3 are marginal
    assert t8 >= 1.0                          # bounded below by service time


def test_response_time_decreasing_in_d():
    rho = 0.95
    values = [supermarket_mean_response_time(rho, d) for d in (1, 2, 3, 4, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_validation():
    with pytest.raises(ValueError):
        supermarket_fixed_point(1.0, 2)
    with pytest.raises(ValueError):
        supermarket_fixed_point(0.5, 0)
    with pytest.raises(ValueError):
        supermarket_mean_response_time(0.5, 2, mean_service=0.0)

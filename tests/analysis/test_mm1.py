"""The reference queueing formulas agree with each other and with M/M/1."""

import numpy as np
import pytest

from repro.analysis import mm1_mean_response_time
from tests.analysis.queueing import (
    erlang_c,
    mg1_mean_response_time,
    mm1_mean_queue_length,
    mm1_mean_waiting_time,
    mm1_queue_length_pmf,
    mmk_mean_queue_length,
    mmk_mean_response_time,
)


def test_pmf_sums_to_one():
    pmf = mm1_queue_length_pmf(0.9, 2000)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)


def test_pmf_matches_formula():
    pmf = mm1_queue_length_pmf(0.5, 5)
    expected = 0.5 * np.array([1, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    assert np.allclose(pmf, expected)


def test_pmf_validation():
    with pytest.raises(ValueError):
        mm1_queue_length_pmf(1.0, 5)
    with pytest.raises(ValueError):
        mm1_queue_length_pmf(0.5, -1)


def test_mean_queue_length():
    assert mm1_mean_queue_length(0.5) == pytest.approx(1.0)
    assert mm1_mean_queue_length(0.9) == pytest.approx(9.0)
    assert mm1_mean_queue_length(0.0) == 0.0


def test_mean_queue_length_from_pmf():
    rho = 0.8
    pmf = mm1_queue_length_pmf(rho, 5000)
    assert (pmf * np.arange(5001)).sum() == pytest.approx(
        mm1_mean_queue_length(rho), abs=1e-8
    )


def test_response_and_waiting_consistent():
    rho, s = 0.7, 0.05
    assert mm1_mean_response_time(rho, s) == pytest.approx(
        mm1_mean_waiting_time(rho, s) + s
    )


def test_mm1_little_law():
    rho, s = 0.6, 0.02
    lam = rho / s
    assert lam * mm1_mean_response_time(rho, s) == pytest.approx(
        mm1_mean_queue_length(rho)
    )


def test_mg1_reduces_to_mm1_for_exponential():
    rho, s = 0.8, 0.05
    assert mg1_mean_response_time(rho, s, service_scv=1.0) == pytest.approx(
        mm1_mean_response_time(rho, s)
    )


def test_mg1_deterministic_halves_waiting():
    rho, s = 0.8, 0.05
    md1_wait = mg1_mean_response_time(rho, s, 0.0) - s
    mm1_wait = mm1_mean_response_time(rho, s) - s
    assert md1_wait == pytest.approx(mm1_wait / 2.0)


def test_mg1_heavy_tail_worse():
    rho, s = 0.9, 0.0289
    medium_scv = (0.0629 / 0.0289) ** 2
    assert mg1_mean_response_time(rho, s, medium_scv) > 3 * mm1_mean_response_time(
        rho, s
    ) / 2


def test_mg1_validation():
    with pytest.raises(ValueError):
        mg1_mean_response_time(0.5, 1.0, -1.0)


def test_erlang_c_single_server_equals_rho():
    # For k=1, P(wait) = rho.
    assert erlang_c(1, 0.7) == pytest.approx(0.7)


def test_erlang_c_bounds():
    for k, a in [(2, 1.0), (16, 14.4), (4, 3.9)]:
        p = erlang_c(k, a)
        assert 0.0 < p < 1.0


def test_erlang_c_zero_load():
    assert erlang_c(8, 0.0) == 0.0


def test_erlang_c_validation():
    with pytest.raises(ValueError):
        erlang_c(0, 0.5)
    with pytest.raises(ValueError):
        erlang_c(2, 2.0)


def test_mmk_reduces_to_mm1():
    rho, s = 0.75, 0.05
    assert mmk_mean_response_time(1, rho, s) == pytest.approx(
        mm1_mean_response_time(rho, s)
    )


def test_mmk_queue_length_little_law():
    k, rho, s = 4, 0.8, 0.05
    lam = rho * k / s
    assert mmk_mean_queue_length(k, rho) == pytest.approx(
        lam * mmk_mean_response_time(k, rho, s)
    )
    # k=1 reduces to M/M/1.
    assert mmk_mean_queue_length(1, 0.6) == pytest.approx(
        mm1_mean_queue_length(0.6)
    )


def test_mmk_pooling_beats_separate_queues():
    """M/M/16 at rho=0.9 must be far better than 16 separate M/M/1s."""
    rho, s = 0.9, 0.05
    pooled = mmk_mean_response_time(16, rho, s)
    separate = mm1_mean_response_time(rho, s)
    assert pooled < separate / 3.0
    assert pooled > s  # but never better than bare service time

"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.workload import MarkovModulatedPoisson, PoissonProcess


def rng():
    return np.random.default_rng(99)


def test_poisson_rate_validation():
    with pytest.raises(ValueError):
        PoissonProcess(0.0)


def test_poisson_mean_interval():
    process = PoissonProcess(rate=20.0)
    assert process.mean_interval() == pytest.approx(0.05)
    gaps = process.interarrivals(rng(), 100_000)
    assert gaps.mean() == pytest.approx(0.05, rel=0.03)


def test_poisson_interarrival_cv_is_one():
    gaps = PoissonProcess(10.0).interarrivals(rng(), 200_000)
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.03)


def test_mmpp_validation():
    with pytest.raises(ValueError):
        MarkovModulatedPoisson((1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        MarkovModulatedPoisson((1.0, 2.0), (0.0, 1.0))


def test_mmpp_mean_rate_weighted():
    process = MarkovModulatedPoisson(rates=(10.0, 100.0), sojourn_means=(3.0, 1.0))
    assert process.mean_rate() == pytest.approx((10 * 3 + 100 * 1) / 4)


def test_mmpp_generates_exact_count_and_positive():
    process = MarkovModulatedPoisson(rates=(50.0, 500.0), sojourn_means=(0.5, 0.5))
    gaps = process.interarrivals(rng(), 20_000)
    assert gaps.shape == (20_000,)
    assert (gaps >= 0).all()


def test_mmpp_long_run_rate():
    process = MarkovModulatedPoisson(rates=(50.0, 500.0), sojourn_means=(1.0, 1.0))
    gaps = process.interarrivals(rng(), 300_000)
    assert 1.0 / gaps.mean() == pytest.approx(process.mean_rate(), rel=0.1)


def test_mmpp_is_burstier_than_poisson():
    """The CV of a 2-phase MMPP with very different rates exceeds 1."""
    process = MarkovModulatedPoisson(rates=(5.0, 500.0), sojourn_means=(1.0, 1.0))
    gaps = process.interarrivals(rng(), 200_000)
    assert gaps.std() / gaps.mean() > 1.2

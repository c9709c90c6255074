"""Unit tests for distributions and moment fitting."""

import math

import numpy as np
import pytest

from repro.workload import (
    Deterministic,
    Exponential,
    Lognormal,
    Pareto,
    Uniform,
    Weibull,
    lognormal_from_moments,
    pareto_from_moments,
    weibull_from_moments,
)

RNG = lambda: np.random.default_rng(1234)  # noqa: E731

ALL_DISTS = [
    Deterministic(2.0),
    Exponential(0.05),
    Uniform(1.0, 3.0),
    Lognormal(0.0, 0.5),
    Weibull(1.5, 2.0),
    Pareto(3.5, 1.0),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_sample_mean_matches_analytic(dist):
    samples = dist.sample(RNG(), 200_000)
    assert samples.mean() == pytest.approx(dist.mean(), rel=0.03)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_sample_std_matches_analytic(dist):
    samples = dist.sample(RNG(), 200_000)
    assert samples.std(ddof=1) == pytest.approx(dist.std(), rel=0.08, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_samples_positive(dist):
    samples = dist.sample(RNG(), 10_000)
    assert (samples > 0).all()


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_scalar_sample(dist):
    value = dist.sample(RNG())
    assert isinstance(value, float) and value > 0


def test_deterministic_is_constant():
    samples = Deterministic(3.0).sample(RNG(), 100)
    assert (samples == 3.0).all()


@pytest.mark.parametrize(
    "mean,std", [(0.0222, 0.001), (0.0289, 0.0629), (1.0, 1.0), (5.0, 0.1)]
)
def test_lognormal_from_moments_exact(mean, std):
    dist = lognormal_from_moments(mean, std)
    assert dist.mean() == pytest.approx(mean, rel=1e-12)
    assert dist.std() == pytest.approx(std, rel=1e-9)


def test_lognormal_from_moments_zero_std():
    dist = lognormal_from_moments(2.0, 0.0)
    assert dist.sigma == 0.0
    assert dist.mean() == pytest.approx(2.0)


@pytest.mark.parametrize("mean,std", [(1.0, 0.5), (0.05, 0.05), (2.0, 3.0)])
def test_weibull_from_moments_exact(mean, std):
    dist = weibull_from_moments(mean, std)
    assert dist.mean() == pytest.approx(mean, rel=1e-8)
    assert dist.std() == pytest.approx(std, rel=1e-6)


@pytest.mark.parametrize("mean,std", [(1.0, 0.5), (0.05, 0.1), (2.0, 4.0)])
def test_pareto_from_moments_exact(mean, std):
    dist = pareto_from_moments(mean, std)
    assert dist.alpha > 2.0
    assert dist.mean() == pytest.approx(mean, rel=1e-12)
    assert dist.std() == pytest.approx(std, rel=1e-9)


def test_pareto_infinite_moments():
    assert math.isinf(Pareto(0.9, 1.0).mean())
    assert math.isinf(Pareto(1.5, 1.0).std())


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Deterministic(0.0),
        lambda: Exponential(-1.0),
        lambda: Uniform(2.0, 1.0),
        lambda: Weibull(1.0, -1.0),
        lambda: Pareto(-1.0, 1.0),
        lambda: lognormal_from_moments(-1.0, 1.0),
        lambda: weibull_from_moments(1.0, 0.0),
        lambda: pareto_from_moments(0.0, 1.0),
    ],
)
def test_invalid_parameters_rejected(factory):
    with pytest.raises(ValueError):
        factory()


def test_cv():
    assert Exponential(5.0).cv() == pytest.approx(1.0)
    assert Deterministic(5.0).cv() == 0.0

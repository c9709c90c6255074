"""Property-based tests for statistics and distributions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import eq1_upperbound, summarize
from repro.analysis.mm1 import mm1_queue_length_pmf
from repro.analysis.supermarket import supermarket_fixed_point
from repro.workload.distributions import (
    lognormal_from_moments,
    pareto_from_moments,
    weibull_from_moments,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
samples = hnp.arrays(np.float64, st.integers(1, 300), elements=finite_floats)


@given(samples)
def test_summarize_bounds(values):
    out = summarize(values)
    assert out["min"] <= out["p50"] <= out["p99"] <= out["max"]
    # 1-ulp slack: the arithmetic mean of identical values can exceed
    # them by one rounding step.
    span = max(abs(out["min"]), abs(out["max"]), 1.0)
    assert out["min"] - 1e-9 * span <= out["mean"] <= out["max"] + 1e-9 * span


moments = st.tuples(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-4, max_value=1e3, allow_nan=False),
)


@given(moments)
@settings(max_examples=60)
def test_lognormal_moment_fit_roundtrip(mean_std):
    mean, std = mean_std
    dist = lognormal_from_moments(mean, std)
    assert np.isclose(dist.mean(), mean, rtol=1e-9)
    assert np.isclose(dist.std(), std, rtol=1e-6)


@given(moments)
@settings(max_examples=40)
def test_weibull_moment_fit_roundtrip(mean_std):
    mean, std = mean_std
    # Weibull shape solver covers CV in (0.105, ~4500); clamp the draw.
    cv = max(0.12, min(std / mean, 10.0))
    dist = weibull_from_moments(mean, cv * mean)
    assert np.isclose(dist.mean(), mean, rtol=1e-6)
    assert np.isclose(dist.std(), cv * mean, rtol=1e-4)


@given(moments)
@settings(max_examples=60)
def test_pareto_moment_fit_roundtrip(mean_std):
    mean, std = mean_std
    # At extreme CV alpha approaches 2 and the variance formula's
    # 1/(alpha-2) amplifies float error; cap the CV like real fits do.
    std = min(std, 100.0 * mean)
    dist = pareto_from_moments(mean, std)
    assert np.isclose(dist.mean(), mean, rtol=1e-9)
    assert np.isclose(dist.std(), std, rtol=1e-5)


rhos = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)


@given(rhos)
def test_mm1_pmf_is_distribution(rho):
    pmf = mm1_queue_length_pmf(rho, 4000)
    assert (pmf >= 0).all()
    assert pmf.sum() <= 1.0 + 1e-9


@given(rhos)
def test_eq1_upperbound_nonnegative_increasing(rho):
    value = eq1_upperbound(rho)
    assert value >= 0.0
    if rho < 0.98:
        assert eq1_upperbound(min(rho + 0.01, 0.99)) >= value


@given(rhos, st.integers(1, 8))
def test_supermarket_tail_monotone(rho, d):
    tail = supermarket_fixed_point(rho, d, k_max=32)
    assert tail[0] == 1.0
    assert (np.diff(tail) <= 1e-12).all()
    assert (tail >= 0).all() and (tail <= 1).all()


@given(rhos, st.integers(2, 8))
def test_supermarket_more_choices_thinner_tail(rho, d):
    with_d = supermarket_fixed_point(rho, d, k_max=16)
    with_one = supermarket_fixed_point(rho, 1, k_max=16)
    assert (with_d <= with_one + 1e-12).all()

"""Property-based tests for statistics and distributions."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import eq1_upperbound
from repro.cluster.metrics import quantiles
from tests.analysis.queueing import mm1_queue_length_pmf, supermarket_fixed_point
from repro.workload.distributions import lognormal_from_moments

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


def _bits(values) -> list:
    """Each float's IEEE bytes (``-0.0`` differs from ``0.0``); NaN as one token."""
    return ["nan" if np.isnan(v) else np.float64(v).tobytes() for v in values]


_samples = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.05, 0.05, 1.0]), st.floats(width=64)),
    min_size=1,
    max_size=300,
)


@given(
    values=_samples,
    q=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6),
    percents=st.lists(st.integers(0, 100), min_size=1, max_size=6),
)
@example(values=[0.2], q=[0.0, 1.0], percents=[0, 100])
@example(values=[0.1, math.nan, 0.1], q=[0.0, 0.5, 1.0], percents=[95])
@example(values=[-0.0, -0.0], q=[1.0], percents=[100])
@example(values=[0.86, 0.03], q=[0.5], percents=[50])  # the two interpolations differ
def test_quantiles_equal_numpy_bit_for_bit(values, q, percents):
    """The run summaries' quantile helper is np.quantile, and with ``p / 100``
    np.percentile, for any float64 sample: ties, NaN, infinities, n = 1."""
    with np.errstate(all="ignore"):
        assert _bits(quantiles(values, q)) == _bits(np.quantile(values, q).tolist())
        assert _bits(quantiles(values, [p / 100 for p in percents])) == _bits(
            np.percentile(values, percents).tolist()
        )

"""The Student-t quantile the replication intervals use, against scipy's."""

import math

import pytest
from scipy import stats

from repro.analysis.stats import t_quantile


@pytest.mark.parametrize("df", range(1, 201))
def test_t_quantile_matches_scipy_at_the_95_percent_interval(df):
    assert t_quantile(0.975, df) == pytest.approx(stats.t.ppf(0.975, df), rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [0.5, 0.6, 0.9, 0.95, 0.995, 0.9995])
@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 30, 121])
def test_t_quantile_matches_scipy_across_levels(p, df):
    assert t_quantile(p, df) == pytest.approx(stats.t.ppf(p, df), rel=1e-12, abs=1e-300)


def test_t_quantile_closed_forms():
    assert t_quantile(0.5, 9) == 0.0
    assert t_quantile(0.75, 1) == pytest.approx(1.0, rel=1e-15)  # Cauchy: tan(pi/4)
    assert t_quantile(0.975, 2) == pytest.approx(math.sqrt(2 / (0.95**-2 - 1)), rel=1e-14)


@pytest.mark.parametrize("p,df", [(0.4, 3), (1.0, 3), (0.975, 0)])
def test_t_quantile_validation(p, df):
    with pytest.raises(ValueError):
        t_quantile(p, df)

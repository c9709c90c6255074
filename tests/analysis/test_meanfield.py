"""Mean-field prediction tests (tier 3 of the validation ladder).

The regression values are the supermarket model's known stationary
quantities: at d=1 the system is M/M/1 (sojourn 1/(1-rho) service
times); at d>=2 the closed form ``sum_i rho^{(d^i-d)/(d-1)}``.
"""

import pytest

from repro.analysis.meanfield import (
    MeanFieldUnsupportedError,
    meanfield_prediction,
)
from repro.experiments.config import SimulationConfig
from repro.net.latency import PAPER_NET


# ----------------------------------------------------------------------
# config -> prediction mapping
# ----------------------------------------------------------------------
def _config(**overrides):
    defaults = dict(
        policy="random",
        workload="poisson_exp",
        load=0.8,
        n_servers=1000,
        n_requests=1000,
        seed=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def test_d1_reduces_to_mm1():
    for rho in (0.3, 0.5, 0.9):
        prediction = meanfield_prediction(_config(load=rho))
        assert prediction.mean_sojourn == pytest.approx(50e-3 / (1.0 - rho), rel=1e-12)


def test_supermarket_regression_values():
    # Known stationary sojourns (service-time units), pinned to guard
    # the prediction against silent drift.
    for rho, d, sojourn in [(0.9, 2, 2.6140573), (0.7, 3, 1.3568422)]:
        prediction = meanfield_prediction(
            _config(policy="polling", policy_params={"poll_size": d}, load=rho)
        )
        assert prediction.mean_sojourn / 50e-3 == pytest.approx(sojourn, rel=1e-7)


def test_invalid_parameters_raise():
    with pytest.raises(ValueError, match="rho"):
        meanfield_prediction(_config(load=1.0))
    with pytest.raises(ValueError, match="d must be"):
        meanfield_prediction(_config(policy="polling", policy_params={"poll_size": 0}))


def test_prediction_degrees_and_offsets():
    random = meanfield_prediction(_config())
    assert random.d == 1
    assert random.latency_offset == pytest.approx(2.0 * PAPER_NET.request_one_way)
    assert random.mean_sojourn == pytest.approx(
        5.0 * 50e-3, rel=1e-12
    )  # M/M/1 at rho=0.8: 5 service times of 50 ms

    polling = meanfield_prediction(
        _config(policy="polling", policy_params={"poll_size": 3})
    )
    assert polling.d == 3
    assert polling.latency_offset == pytest.approx(
        PAPER_NET.udp_rtt + 2.0 * PAPER_NET.request_one_way
    )
    assert polling.mean_response_time < random.mean_response_time


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(policy="broadcast", policy_params={"mean_interval": 0.01}), "policy"),
        (dict(policy="stale_jsq", policy_params={"update_interval": 0.02}), "policy"),
        (
            dict(policy="polling", policy_params={"poll_size": 3, "discard_slow": True}),
            "discard_slow",
        ),
        (dict(workload="poisson_uniform"), "workload"),
        (dict(load=1.2), "load"),
        (dict(model="prototype"), "model"),
    ],
)
def test_unmappable_configs_raise(overrides, fragment):
    with pytest.raises(MeanFieldUnsupportedError, match=fragment):
        meanfield_prediction(_config(**overrides))

"""Unit tests for the named-workload registry."""

import numpy as np
import pytest

from repro.workload import Workload, available_workloads, make_workload
from repro.workload.workloads import POISSON_EXP_MEAN_SERVICE


def rng():
    return np.random.default_rng(11)


def test_paper_workloads_registered():
    names = available_workloads()
    for required in ("poisson_exp", "fine_grain", "medium_grain"):
        assert required in names


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        make_workload("nope")


def test_poisson_exp_default_mean_service_is_50ms():
    workload = make_workload("poisson_exp")
    assert workload.mean_service_time() == pytest.approx(50e-3)
    assert POISSON_EXP_MEAN_SERVICE == pytest.approx(50e-3)


def test_poisson_exp_override_mean_service():
    workload = make_workload("poisson_exp", mean_service=5e-3)
    assert workload.mean_service_time() == pytest.approx(5e-3)


@pytest.mark.parametrize("name", ["poisson_exp", "fine_grain", "medium_grain"])
def test_generate_shapes_and_positivity(name):
    workload = make_workload(name)
    gaps, service = workload.generate(rng(), 5000)
    assert gaps.shape == service.shape == (5000,)
    assert (gaps >= 0).all()
    assert (service > 0).all()


def test_generate_rejects_zero():
    with pytest.raises(ValueError):
        make_workload("poisson_exp").generate(rng(), 0)


def test_trace_workload_mean_service_estimate():
    workload = make_workload("fine_grain")
    assert workload.mean_service_time(rng()) == pytest.approx(22.2e-3, rel=0.05)


def test_workload_requires_components():
    with pytest.raises(ValueError):
        Workload("bad")


def test_extension_workloads_generate():
    for name in ("poisson_deterministic", "poisson_lognormal", "mmpp_exp"):
        gaps, service = make_workload(name).generate(rng(), 1000)
        assert gaps.shape == (1000,)
        assert (service > 0).all()


def test_deterministic_workload_constant_service():
    _, service = make_workload("poisson_deterministic", mean_service=0.01).generate(rng(), 100)
    assert (service == 0.01).all()

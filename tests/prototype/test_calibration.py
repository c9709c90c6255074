"""Tests for the 98%-under-2s full-load calibration."""

import numpy as np
import pytest

from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.experiments import SimulationConfig
from repro.experiments.runner import _resolve_nominal_rho
from repro.net.latency import PAPER_NET
from repro.prototype import PrototypeOverheadModel, calibrate_full_load
from repro.prototype.calibration import _single_server_responses
from repro.sim import RngHub
from repro.workload import make_workload


@pytest.fixture(scope="module")
def calibrations():
    out = {}
    for name in ("fine_grain", "poisson_exp", "medium_grain"):
        out[name] = calibrate_full_load(make_workload(name), n_requests=4000, seed=5)
    return out


def test_full_load_below_or_at_nominal_saturation(calibrations):
    for calibration in calibrations.values():
        assert 0.4 < calibration.nominal_rho_at_full_load <= 1.02


def test_fine_grain_has_least_headroom(calibrations):
    """Near-deterministic service -> the 2s criterion trips only near
    nominal saturation; heavy-tailed Medium-Grain trips much earlier.
    This ordering is what makes Figure 6C (and not 6A) collapse at d=8."""
    fine = calibrations["fine_grain"].nominal_rho_at_full_load
    poisson = calibrations["poisson_exp"].nominal_rho_at_full_load
    medium = calibrations["medium_grain"].nominal_rho_at_full_load
    # The robust invariant: fine-grain calibrates near saturation, the
    # variable-service workloads well below it. (The poisson/medium
    # ordering is noisy at short calibration runs, so not asserted.)
    assert fine > poisson and fine > medium
    assert fine > 0.95
    assert poisson < 0.96 and medium < 0.96


def test_achieved_fraction_near_target(calibrations):
    for calibration in calibrations.values():
        assert calibration.achieved_completion_fraction == pytest.approx(0.98, abs=0.015)


def test_nominal_scaling(calibrations):
    """A prototype run's nominal utilization is its load times the
    calibrated full-load utilization."""
    rho = calibrations["poisson_exp"].nominal_rho_at_full_load
    config = SimulationConfig(model="prototype", load=0.5, full_load_rho=rho)
    assert _resolve_nominal_rho(config, None) == pytest.approx(0.5 * rho)


def test_calibration_deterministic():
    a = calibrate_full_load(make_workload("poisson_exp"), n_requests=2000, seed=7)
    b = calibrate_full_load(make_workload("poisson_exp"), n_requests=2000, seed=7)
    assert a.nominal_rho_at_full_load == b.nominal_rho_at_full_load


def test_target_fraction_validation():
    with pytest.raises(ValueError):
        calibrate_full_load(make_workload("poisson_exp"), target_fraction=1.0)
    with pytest.raises(ValueError):
        calibrate_full_load(make_workload("poisson_exp"), rho_bounds=(1.0, 0.5))


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize("name", ["fine_grain", "medium_grain", "poisson_exp"])
def test_recursion_is_byte_equal_to_a_one_server_prototype_cluster(name, engine):
    """The calibration no longer runs the event engine: with one server
    and no polls the run is its Lindley recursion, float for float."""
    overhead = PrototypeOverheadModel()
    gaps, services = make_workload(name).generate(RngHub(3).stream("calibration.workload"), 1500)
    for rho in (0.40, 0.70, 0.85, 0.95, 1.02):
        scaled = gaps * ((float(services.mean()) / rho) / float(gaps.mean()))
        cluster = ServiceCluster(
            n_servers=1, policy=make_policy("random"), seed=3, n_clients=1,
            constants=PAPER_NET, overhead=overhead, engine=engine,
        )
        cluster.load_workload(scaled, services)
        simulated = cluster.run().response_time
        recursion = _single_server_responses(
            scaled, services + overhead.request_cpu_overhead, PAPER_NET.request_one_way
        )
        assert recursion.dtype == simulated.dtype
        assert recursion.tobytes() == simulated.tobytes(), (name, rho)


def test_calibration_values_do_not_move():
    """Read from the event-engine calibration this recursion replaced
    (defaults: seed 0, 6 000 requests)."""
    expected = {
        "fine_grain": (0.9892724609375001, 0.98),
        "medium_grain": (0.8839208984375, 0.9807407407407407),
        "poisson_exp": (0.92130859375, 0.9798148148148148),
    }
    for name, (rho, achieved) in expected.items():
        calibration = calibrate_full_load(make_workload(name))
        assert calibration.nominal_rho_at_full_load == rho
        assert calibration.achieved_completion_fraction == achieved


def test_upper_bound_meeting_the_target_is_full_load():
    calibration = calibrate_full_load(
        make_workload("fine_grain"), n_requests=2000, rho_bounds=(0.4, 0.6)
    )
    assert calibration.nominal_rho_at_full_load == 0.6
    assert calibration.achieved_completion_fraction >= 0.98

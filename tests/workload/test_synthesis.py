"""Unit tests for Table-1 trace synthesis."""

import numpy as np
import pytest

from repro.workload import (
    FINE_GRAIN_SPEC,
    MEDIUM_GRAIN_SPEC,
    TraceSpec,
    synthesize_trace,
)


def test_specs_match_paper_service_moments():
    assert FINE_GRAIN_SPEC.service_time_mean == pytest.approx(22.2e-3)
    assert FINE_GRAIN_SPEC.service_time_std == pytest.approx(1.0e-3)
    assert MEDIUM_GRAIN_SPEC.service_time_mean == pytest.approx(28.9e-3)
    assert MEDIUM_GRAIN_SPEC.service_time_std == pytest.approx(62.9e-3)


def test_fine_grain_service_cv_below_exponential():
    """The paper notes both traces have lower service variance than Exp."""
    assert FINE_GRAIN_SPEC.service_time_std < FINE_GRAIN_SPEC.service_time_mean


def test_default_size_is_peak_portion():
    trace = synthesize_trace(FINE_GRAIN_SPEC, rng=np.random.default_rng(0))
    assert len(trace) == FINE_GRAIN_SPEC.peak_accesses


@pytest.mark.parametrize("spec", [FINE_GRAIN_SPEC, MEDIUM_GRAIN_SPEC], ids=lambda s: s.name)
def test_synthesized_moments_close(spec):
    trace = synthesize_trace(spec, n=200_000, rng=np.random.default_rng(3))
    stats = trace.stats()
    assert stats.service_time_mean == pytest.approx(spec.service_time_mean, rel=0.05)
    assert stats.service_time_std == pytest.approx(spec.service_time_std, rel=0.15)
    assert stats.arrival_interval_mean == pytest.approx(spec.arrival_interval_mean, rel=0.05)
    assert stats.arrival_interval_std == pytest.approx(spec.arrival_interval_std, rel=0.1)


def test_synthesis_reproducible():
    a = synthesize_trace(FINE_GRAIN_SPEC, n=1000, rng=np.random.default_rng(5))
    b = synthesize_trace(FINE_GRAIN_SPEC, n=1000, rng=np.random.default_rng(5))
    assert np.array_equal(a.service, b.service)


def test_synthesis_rejects_tiny_n():
    with pytest.raises(ValueError):
        synthesize_trace(FINE_GRAIN_SPEC, n=1)


def test_custom_spec():
    spec = TraceSpec(
        name="custom",
        total_accesses=100,
        peak_accesses=10,
        arrival_interval_mean=0.1,
        arrival_interval_std=0.05,
        service_time_mean=0.01,
        service_time_std=0.002,
    )
    trace = synthesize_trace(spec, n=20_000, rng=np.random.default_rng(6))
    assert trace.stats().service_time_mean == pytest.approx(0.01, rel=0.05)

"""Synthesis of Teoma-like traces from the published Table 1 moments.

The paper's traces are proprietary (two internal services of the Teoma
search engine, collected over one week in late July 2001). We substitute
synthetic traces whose arrival-interval and service-time moments match
the published Table 1 statistics. See DESIGN.md §5 for how the partially
garbled OCR of Table 1 was disambiguated; the adopted values live in
:data:`FINE_GRAIN_SPEC` and :data:`MEDIUM_GRAIN_SPEC`.

Distribution choice: lognormal for both interarrival gaps and service
times, fitted by moments. The paper itself observes (§1.1) that
Lognormal/Weibull/Pareto model such workloads well and that its traces'
distributions have *lower* variance than exponential; lognormal covers
both the near-deterministic Fine-Grain service times (CV ≈ 0.05) and the
heavy-tailed Medium-Grain service times (CV ≈ 2.2) with the same family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.distributions import (
    Distribution,
    lognormal_from_moments,
)
from repro.workload.traces import Trace

__all__ = ["TraceSpec", "FINE_GRAIN_SPEC", "MEDIUM_GRAIN_SPEC", "synthesize_trace"]


@dataclass(frozen=True)
class TraceSpec:
    """Target statistics for a synthesized trace (Table 1 row).

    Times in seconds. ``total_accesses``/``peak_accesses`` are the
    week-long and peak-portion sizes; experiments use the peak portion.
    """

    name: str
    total_accesses: int
    peak_accesses: int
    arrival_interval_mean: float
    arrival_interval_std: float
    service_time_mean: float
    service_time_std: float

    def arrival_distribution(self) -> Distribution:
        return lognormal_from_moments(
            self.arrival_interval_mean, self.arrival_interval_std
        )

    def service_distribution(self) -> Distribution:
        return lognormal_from_moments(self.service_time_mean, self.service_time_std)


#: Fine-Grain trace: query-word translation service. Mean service time
#: 22.2 ms (stated twice in the paper), near-deterministic (std adopted
#: as 1.0 ms from the garbled "1.?ms" cell).
FINE_GRAIN_SPEC = TraceSpec(
    name="Fine-Grain trace",
    total_accesses=1_171_838,
    peak_accesses=98_672,
    arrival_interval_mean=330.6e-3,
    arrival_interval_std=349.4e-3,
    service_time_mean=22.2e-3,
    service_time_std=1.0e-3,
)

#: Medium-Grain trace: page-description translation service. Mean
#: service time 28.9 ms with std 62.9 ms (CV ≈ 2.2) — the heavy tail is
#: what makes Medium-Grain response times large in Table 2.
MEDIUM_GRAIN_SPEC = TraceSpec(
    name="Medium-Grain trace",
    total_accesses=1_550_442,
    peak_accesses=154_418,
    arrival_interval_mean=344.5e-3,
    arrival_interval_std=321.1e-3,
    service_time_mean=28.9e-3,
    service_time_std=62.9e-3,
)


def synthesize_trace(
    spec: TraceSpec,
    n: int | None = None,
    rng: np.random.Generator | None = None,
) -> Trace:
    """Generate a synthetic trace matching ``spec``.

    Parameters
    ----------
    spec:
        Target moments (a Table 1 row).
    n:
        Number of accesses; defaults to the spec's peak-portion size.
    rng:
        Source of randomness (defaults to a fresh seeded generator).

    Moments match the spec in expectation, not sample by sample.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    count = spec.peak_accesses if n is None else int(n)
    if count < 2:
        raise ValueError(f"need at least 2 accesses, got {count}")
    gaps = np.asarray(spec.arrival_distribution().sample(rng, count))
    service = np.asarray(spec.service_distribution().sample(rng, count))
    return Trace(
        name=spec.name,
        interarrival=gaps,
        service=service,
        metadata={
            "spec": spec,
            "synthesized": True,
        },
    )

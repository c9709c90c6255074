"""Mean-field (N→∞) predictions for simulation configs.

The supermarket model's stationary point has a closed form
(:mod:`repro.analysis.supermarket`; Mitzenmacher, Horváth & Mészáros):
``s_k = rho^{(d^k-1)/(d-1)}``, so the mean sojourn is
:func:`~repro.analysis.supermarket.supermarket_mean_response_time`.
This module maps simulation configs onto that model, so a fast-path
cell at N=1000+ can be cross-checked against the N→∞ prediction
without ever running an exact engine at that scale (the large-N
validation tier, DESIGN.md §13).

Mapping (what the model can represent):

- ``random`` → d = 1 (each M/M/1 queue in isolation; exact at any N)
- ``polling`` → d = poll_size (power-of-d-choices)
- ``broadcast`` / ``stale_jsq`` select on *globally* stale state — not
  a power-of-d system — and anything non-Poisson/non-exponential breaks
  the model, so those raise :class:`MeanFieldUnsupportedError`.

Predictions are in *response-time* terms (the simulator's measurement):
the mean sojourn plus the constant network path the simulation model
charges (one-way request + response, plus the poll round trip for
polling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.supermarket import supermarket_mean_response_time
from repro.net.latency import PAPER_NET, PaperNetworkConstants
from repro.workload.workloads import POISSON_EXP_MEAN_SERVICE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import SimulationConfig

__all__ = [
    "MeanFieldPrediction",
    "MeanFieldUnsupportedError",
    "meanfield_prediction",
]


class MeanFieldUnsupportedError(ValueError):
    """The config maps onto no supermarket-model limit."""


@dataclass(frozen=True)
class MeanFieldPrediction:
    """N→∞ prediction for one simulation config (times in seconds)."""

    rho: float
    d: int
    mean_service: float
    mean_sojourn: float  # queueing + service, seconds
    latency_offset: float  # constant network path charged by the model

    @property
    def mean_response_time(self) -> float:
        return self.mean_sojourn + self.latency_offset


def _model_degree(config: "SimulationConfig") -> int:
    if config.policy == "random":
        return 1
    if config.policy == "polling":
        poll_size = int(config.policy_params.get("poll_size", 2))
        if config.policy_params.get("discard_slow"):
            raise MeanFieldUnsupportedError(
                "polling with discard_slow has no supermarket-model limit"
            )
        return poll_size
    raise MeanFieldUnsupportedError(
        f"policy {config.policy!r} has no supermarket-model limit "
        "(supported: random [d=1], polling [d=poll_size])"
    )


def meanfield_prediction(
    config: "SimulationConfig",
    constants: PaperNetworkConstants = PAPER_NET,
) -> MeanFieldPrediction:
    """Map a config onto the supermarket limit and evaluate it.

    Raises :class:`MeanFieldUnsupportedError` for configs outside the
    model (non-Poisson/Exp workload, stale-information policies,
    prototype model, load >= 1).
    """
    if config.model != "simulation":
        raise MeanFieldUnsupportedError(
            f"model={config.model!r}: the mean-field limit covers the pure "
            "simulation model only"
        )
    if config.workload != "poisson_exp":
        raise MeanFieldUnsupportedError(
            f"workload {config.workload!r}: the supermarket model needs "
            "Poisson arrivals and exponential service (poisson_exp)"
        )
    if not 0 < config.load < 1:
        raise MeanFieldUnsupportedError(
            f"load={config.load}: stationary mean-field requires 0 < rho < 1"
        )
    d = _model_degree(config)
    mean_service = float(
        config.workload_params.get("mean_service", POISSON_EXP_MEAN_SERVICE)
    )
    # Response time = sojourn + dispatch latency + request/response
    # one-ways (see fastpath's timing model: polls cost one UDP RTT, the
    # instant policies dispatch at arrival).
    dispatch = constants.udp_rtt if config.policy == "polling" else 0.0
    return MeanFieldPrediction(
        rho=config.load,
        d=d,
        mean_service=mean_service,
        mean_sojourn=supermarket_mean_response_time(config.load, d, mean_service),
        latency_offset=dispatch + 2.0 * constants.request_one_way,
    )

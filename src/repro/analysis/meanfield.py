"""Stationary mean-field (fluid-limit) solver for the supermarket model.

:mod:`repro.analysis.supermarket` gives the *analytic* fixed point
``s_k = rho^{(d^k-1)/(d-1)}``. This module closes
the loop for the large-N validation tier (DESIGN.md §13): it finds the
stationary point *numerically* — integrating the mean-field ODE

    ds_k/dt = rho (s_{k-1}^d - s_k^d) - (s_k - s_{k+1})

until the drift vanishes — and maps simulation configs onto the model
so a fast-path cell at N=1000+ can be cross-checked against the N→∞
prediction without ever running an exact engine at that scale
(Horváth & Mészáros; Mitzenmacher). Solving the ODE instead of just
evaluating the closed form keeps the check honest: agreement between
the integrated fixed point and the closed form is itself asserted in
tests, and the ODE route generalizes to variants with no closed form.

Mapping (what the model can represent):

- ``random`` → d = 1 (each M/M/1 queue in isolation; exact at any N)
- ``polling`` → d = poll_size (power-of-d-choices)
- ``broadcast`` / ``stale_jsq`` select on *globally* stale state — not
  a power-of-d system — and anything non-Poisson/non-exponential breaks
  the model, so those raise :class:`MeanFieldUnsupportedError`.

Predictions are in *response-time* terms (the simulator's measurement):
mean sojourn from the fixed point via Little's law, plus the constant
network path the simulation model charges (one-way request + response,
plus the poll round trip for polling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.supermarket import supermarket_fixed_point
from repro.net.latency import PAPER_NET, PaperNetworkConstants
from repro.workload.workloads import POISSON_EXP_MEAN_SERVICE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import SimulationConfig

__all__ = [
    "MeanFieldSolution",
    "MeanFieldPrediction",
    "MeanFieldUnsupportedError",
    "solve_stationary",
    "meanfield_prediction",
]


class MeanFieldUnsupportedError(ValueError):
    """The config maps onto no supermarket-model limit."""


@dataclass(frozen=True)
class MeanFieldSolution:
    """Stationary point of the mean-field ODE.

    ``tail[k]`` is ``s_k`` — the limiting fraction of servers with at
    least ``k`` jobs in system. Times are in units of mean service time.
    """

    rho: float
    d: int
    tail: np.ndarray
    residual: float  # max |ds_k/dt| at the returned state
    elapsed: float  # integrated model time until convergence

    @property
    def mean_queue_length(self) -> float:
        """Expected jobs per server: ``sum_{k>=1} s_k``."""
        return float(self.tail[1:].sum())

    @property
    def mean_sojourn(self) -> float:
        """Expected time in system / E[S], via Little's law
        (``sum_{k>=1} s_k / rho``); 1/(1-rho) at d=1."""
        if self.rho == 0:
            return 1.0
        return self.mean_queue_length / self.rho

    @property
    def fixed_point_gap(self) -> float:
        """Max deviation from the analytic closed form (sanity metric)."""
        analytic = supermarket_fixed_point(self.rho, self.d, k_max=len(self.tail) - 1)
        return float(np.abs(self.tail - analytic).max())


def solve_stationary(
    rho: float,
    d: int,
    k_max: int = 64,
    tol: float = 1e-8,
    block: float = 64.0,
    max_time: float = 65536.0,
) -> MeanFieldSolution:
    """Integrate the mean-field ODE from empty until stationary.

    Runs ``solve_ivp`` in blocks of ``block`` service times and stops
    when the drift ``max_k |ds_k/dt|`` falls below ``tol``; raises if
    ``max_time`` service times pass without converging (heavy loads
    relax on the 1/(1-rho)^2 timescale, hence the generous default).
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if rho == 0:
        tail = np.zeros(k_max + 1)
        tail[0] = 1.0
        return MeanFieldSolution(rho=rho, d=d, tail=tail, residual=0.0, elapsed=0.0)

    from scipy.integrate import solve_ivp

    def rhs(_t: float, s: np.ndarray) -> np.ndarray:
        full = np.empty(k_max + 2)
        full[0] = 1.0
        full[1 : k_max + 1] = np.clip(s, 0.0, 1.0)
        full[k_max + 1] = 0.0
        powered = full**d
        return rho * (powered[:k_max] - powered[1 : k_max + 1]) - (
            full[1 : k_max + 1] - full[2 : k_max + 2]
        )

    state = np.zeros(k_max)
    elapsed = 0.0
    residual = float(np.abs(rhs(0.0, state)).max())
    while residual > tol:
        if elapsed >= max_time:
            raise RuntimeError(
                f"mean-field ODE did not converge within {max_time} service "
                f"times (rho={rho}, d={d}, residual={residual:.3e})"
            )
        solution = solve_ivp(
            rhs, (0.0, block), state, rtol=1e-10, atol=1e-12, dense_output=False
        )
        if not solution.success:  # pragma: no cover - solver failure
            raise RuntimeError(f"ODE integration failed: {solution.message}")
        state = solution.y[:, -1]
        elapsed += block
        residual = float(np.abs(rhs(0.0, state)).max())

    tail = np.empty(k_max + 1)
    tail[0] = 1.0
    tail[1:] = np.clip(state, 0.0, 1.0)
    return MeanFieldSolution(rho=rho, d=d, tail=tail, residual=residual, elapsed=elapsed)


@dataclass(frozen=True)
class MeanFieldPrediction:
    """N→∞ prediction for one simulation config (times in seconds)."""

    rho: float
    d: int
    mean_service: float
    mean_sojourn: float  # queueing + service, seconds
    latency_offset: float  # constant network path charged by the model
    solution: MeanFieldSolution

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
    k_max: int = 64,
) -> MeanFieldPrediction:
    """Map a config onto the supermarket limit and solve it.

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
    solution = solve_stationary(config.load, d, k_max=k_max)
    # Response time = sojourn + dispatch latency + request/response
    # one-ways (see fastpath's timing model: polls cost one UDP RTT, the
    # instant policies dispatch at arrival).
    dispatch = constants.udp_rtt if config.policy == "polling" else 0.0
    return MeanFieldPrediction(
        rho=config.load,
        d=d,
        mean_service=mean_service,
        mean_sojourn=solution.mean_sojourn * mean_service,
        latency_offset=dispatch + 2.0 * constants.request_one_way,
        solution=solution,
    )

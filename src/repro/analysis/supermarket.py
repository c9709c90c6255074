"""Mitzenmacher's supermarket (power-of-d-choices) mean-field model.

The paper cites Mitzenmacher (SPAA'97): with Poisson arrivals at rate
``n·rho``, ``n`` exponential servers, and each job joining the shortest
of ``d`` uniformly sampled queues, the limiting (n → ∞) fraction of
queues with at least ``k`` jobs is

    s_k = rho^{(d^k - 1)/(d - 1)}

so the expected time in system is ``E[T]/E[S] = sum_{i>=1}
rho^{(d^i - d)/(d - 1)}`` — a doubly exponential improvement over d=1.
This module provides the fixed point of the mean-field ODE ``ds_k/dt =
lambda (s_{k-1}^d - s_k^d) - (s_k - s_{k+1})`` and the derived means,
used to (a) explain the paper's "poll size 2 suffices" observation
analytically and (b) validate the cluster simulator against theory
(:mod:`repro.analysis.meanfield` maps configs onto it for the fast
engine's large-N check).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "supermarket_fixed_point",
    "supermarket_mean_queue_length",
    "supermarket_mean_response_time",
]


def _check(rho: float, d: int) -> None:
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


def _exponents(d: int, k: np.ndarray) -> np.ndarray:
    """(d^k - 1)/(d - 1), handled exactly at d=1 (→ k)."""
    if d == 1:
        return k.astype(np.float64)
    return (np.power(float(d), k) - 1.0) / (d - 1.0)


def supermarket_fixed_point(rho: float, d: int, k_max: int = 64) -> np.ndarray:
    """``s_k`` for k = 0..k_max: fraction of queues with >= k jobs."""
    _check(rho, d)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    k = np.arange(k_max + 1)
    if rho == 0:
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        return out
    with np.errstate(over="ignore", under="ignore"):
        exponents = _exponents(d, k)
        # Guard overflow in d^k for large k: exponents grow fast, rho<1
        # so s_k underflows to 0, which is the correct limit.
        out = np.where(exponents > 1e15, 0.0, rho ** np.minimum(exponents, 1e15))
    out[0] = 1.0
    return out


def supermarket_mean_queue_length(rho: float, d: int) -> float:
    """Expected jobs per queue: ``sum_{k>=1} s_k``."""
    _check(rho, d)
    tail = supermarket_fixed_point(rho, d, k_max=512)
    return float(tail[1:].sum())


def supermarket_mean_response_time(rho: float, d: int, mean_service: float = 1.0) -> float:
    """Expected time in system: ``E[S] * sum_{i>=1} rho^{(d^i-d)/(d-1)}``.

    For d = 1 this reduces to the M/M/1 value ``E[S]/(1-rho)``.
    """
    _check(rho, d)
    if mean_service <= 0:
        raise ValueError(f"mean_service must be > 0, got {mean_service}")
    if rho == 0:
        return mean_service
    i = np.arange(1, 513)
    if d == 1:
        exponents = i - 1.0
    else:
        with np.errstate(over="ignore"):
            exponents = (np.power(float(d), i) - d) / (d - 1.0)
    with np.errstate(under="ignore"):
        terms = np.where(exponents > 1e15, 0.0, rho ** np.minimum(exponents, 1e15))
    return mean_service * float(terms.sum())

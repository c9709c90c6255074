"""The M/M/1 mean response time, the ``random`` policy's baseline.

A server fed Poisson arrivals with exponential service at utilization
``rho`` keeps a request ``mean_service / (1 - rho)`` on average: what
``random`` dispatch over N such servers must reproduce (the benchmark
suite's ``analysis.mm1_rel_error.random``). The other queueing formulas
the tests validate against live beside them, in ``tests/analysis/``.
"""

from __future__ import annotations

__all__ = ["mm1_mean_response_time"]


def _check_rho(rho: float) -> None:
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")


def mm1_mean_response_time(rho: float, mean_service: float) -> float:
    """Expected time in system (queue + service)."""
    _check_rho(rho)
    return mean_service / (1.0 - rho)

"""Reference queueing formulas the tests hold the simulators and closed forms to.

No run of the repository calls these, so they live beside their tests:
M/M/1 (Kleinrock vol. I), M/G/1 (Pollaczek–Khinchine) and M/M/k
(Erlang-C) moments; the fixed point of Mitzenmacher's supermarket
mean-field ODE, which the closed form ``repro.analysis.supermarket``
ships must sum to; and the direct double sum of the paper's Eq. 1.
"""

import numpy as np


def _check_rho(rho: float) -> None:
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")


def _check(rho: float, d: int) -> None:
    _check_rho(rho)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


def mm1_queue_length_pmf(rho: float, k_max: int) -> np.ndarray:
    """P(Q = k) for k = 0..k_max in a stationary M/M/1 queue.

    The paper (§2.1) uses the limiting distribution
    ``P(Q = k) = (1 - rho) rho^k`` (Kleinrock vol. I).
    """
    _check_rho(rho)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    k = np.arange(k_max + 1)
    return (1.0 - rho) * rho**k


def mm1_mean_queue_length(rho: float) -> float:
    """E[Q] = rho / (1 - rho) (number in system)."""
    _check_rho(rho)
    return rho / (1.0 - rho)


def mm1_mean_waiting_time(rho: float, mean_service: float) -> float:
    """Expected time in queue (excluding service)."""
    _check_rho(rho)
    return rho * mean_service / (1.0 - rho)


def mg1_mean_response_time(
    rho: float, mean_service: float, service_scv: float
) -> float:
    """Pollaczek–Khinchine: M/G/1 expected response time.

    ``service_scv`` is the squared coefficient of variation
    Var[S]/E[S]^2 — 1 for exponential, 0 for deterministic, ≈4.7 for the
    Medium-Grain trace. The heavy Medium-Grain tail is why its Table 2
    response times are an order of magnitude above its service time.
    """
    _check_rho(rho)
    if service_scv < 0:
        raise ValueError(f"service_scv must be >= 0, got {service_scv}")
    waiting = rho * mean_service * (1.0 + service_scv) / (2.0 * (1.0 - rho))
    return mean_service + waiting


def erlang_c(k: int, offered: float) -> float:
    """Erlang-C: probability an arrival waits in an M/M/k queue.

    ``offered`` is the offered load a = lambda * E[S] (in Erlangs);
    requires a < k for stability.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= offered < k:
        raise ValueError(f"need 0 <= offered < k, got {offered} (k={k})")
    if offered == 0:
        return 0.0
    # Stable iterative computation of the Erlang-B recursion, then C.
    b = 1.0
    for i in range(1, k + 1):
        b = offered * b / (i + offered * b)
    rho = offered / k
    return b / (1.0 - rho + rho * b)


def mmk_mean_response_time(k: int, rho: float, mean_service: float) -> float:
    """Expected response time of an M/M/k queue at per-server load rho."""
    _check_rho(rho)
    offered = rho * k
    wait_prob = erlang_c(k, offered)
    expected_wait = wait_prob * mean_service / (k * (1.0 - rho))
    return mean_service + expected_wait


def mmk_mean_queue_length(k: int, rho: float) -> float:
    """Expected number in system for M/M/k (Little on response time)."""
    _check_rho(rho)
    # lambda = rho * k / E[S]; E[N] = lambda * E[T]
    return rho * k * mmk_mean_response_time(k, rho, 1.0)


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


def eq1_upperbound_series(rho: float, terms: int = 4000) -> float:
    """Direct evaluation of the Eq. 1 double sum (verification).

    ``sum_{i,j=0}^{terms} (1-rho)^2 rho^{i+j} |i-j|``; converges to
    :func:`eq1_upperbound` as ``terms`` grows.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    k = np.arange(terms)
    weights = (1.0 - rho) * rho**k  # P(Q = k)
    diff = np.abs(k[:, None] - k[None, :])
    return float(weights @ diff @ weights)

"""Load-index inaccuracy (paper §2.1, Eq. 1, Figure 2).

The paper defines the load-index inaccuracy for a dissemination delay
``t`` as ``E |Q(tau) - Q(tau + t)|`` over random times ``tau`` on a
single server, and derives an upper bound for Poisson/Exp assuming the
two samples become independent at large delay:

    sum_{i,j} (1-rho)^2 rho^{i+j} |i - j|  =  2 rho / (1 - rho^2)   (Eq. 1)

This module provides the closed form (the tests check the algebra
against the series), a vectorized single-FIFO-server queue-length
computation (no DES required), and the empirical inaccuracy
measurement used by the Figure 2 driver.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eq1_upperbound",
    "fifo_queue_length_steps",
    "measure_inaccuracy",
]


def eq1_upperbound(rho: float) -> float:
    """The paper's Eq. 1: ``2 rho / (1 - rho^2)``.

    At rho = 0.9 this is ≈ 9.47; the paper's Figure 2 quotes ≈ 1.33 at
    rho = 0.5 (2·0.5/0.75).
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    return 2.0 * rho / (1.0 - rho * rho)


def fifo_queue_length_steps(
    arrival_times: np.ndarray, service_times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Queue-length step function of a single non-preemptive FIFO server.

    Fully vectorized (the guides' "avoid event-per-sample loops" idiom):
    departures satisfy ``d_i = max(a_i, d_{i-1}) + s_i``, which is a
    prefix recursion solved as ``d_i = max_j (a_j + sum_{k=j..i} s_k)``
    = ``cumsum(s) + running_max(a - cumsum(s) shifted)``.

    Returns ``(times, queue_lengths)`` — a right-continuous step
    function starting at Q=0; ``queue_lengths[k]`` holds on
    ``[times[k], times[k+1])``. Queue length counts the job in service.
    """
    arrivals = np.ascontiguousarray(arrival_times, dtype=np.float64)
    services = np.ascontiguousarray(service_times, dtype=np.float64)
    if arrivals.shape != services.shape or arrivals.ndim != 1:
        raise ValueError("arrival_times and service_times must be equal-length 1-D")
    if arrivals.size == 0:
        return np.empty(0), np.empty(0)
    if (np.diff(arrivals) < 0).any():
        raise ValueError("arrival_times must be non-decreasing")
    cum_service = np.cumsum(services)
    # d_i = cum_service_i + max_{j<=i} (a_j - cum_service_{j-1})
    slack = arrivals.copy()
    slack[1:] -= cum_service[:-1]
    departures = cum_service + np.maximum.accumulate(slack)

    events = np.concatenate([arrivals, departures])
    deltas = np.concatenate([np.ones_like(arrivals), -np.ones_like(departures)])
    # At equal times, process departures (delta=-1) before arrivals so a
    # job arriving exactly at a departure instant sees the freed server.
    order = np.lexsort((deltas, events))
    times = events[order]
    queue = np.cumsum(deltas[order])
    return times, queue


def measure_inaccuracy(
    times: np.ndarray,
    queue: np.ndarray,
    delays: np.ndarray,
    rng: np.random.Generator,
    n_samples: int = 20000,
    window: tuple[float, float] | None = None,
) -> np.ndarray:
    """Empirical ``E |Q(tau) - Q(tau + delay)|`` for each delay.

    Samples ``n_samples`` uniform times ``tau`` in ``window`` (default:
    [10% of the horizon, horizon - max(delays)]) and evaluates the step
    function at ``tau`` and ``tau + delay`` via ``searchsorted``.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    queue = np.ascontiguousarray(queue, dtype=np.float64)
    delays = np.atleast_1d(np.asarray(delays, dtype=np.float64))
    if times.size < 2:
        raise ValueError("need a non-trivial step function")
    if (delays < 0).any():
        raise ValueError("delays must be >= 0")
    horizon = times[-1]
    max_delay = float(delays.max())
    if window is None:
        window = (0.1 * horizon, horizon - max_delay)
    t_lo, t_hi = window
    if t_hi <= t_lo:
        raise ValueError(
            f"sampling window empty: [{t_lo}, {t_hi}] (horizon={horizon}, "
            f"max delay={max_delay})"
        )
    taus = rng.uniform(t_lo, t_hi, n_samples)

    def q_at(query: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(times, query, side="right") - 1
        return np.where(idx >= 0, queue[np.clip(idx, 0, None)], 0.0)

    base = q_at(taus)
    out = np.empty(delays.shape[0])
    for i, delay in enumerate(delays):
        out[i] = np.abs(q_at(taus + delay) - base).mean()
    return out

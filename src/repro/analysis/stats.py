"""Distribution distances and the Student-t quantile, numpy and stdlib only.

- :func:`ks_statistic` — two-sample Kolmogorov–Smirnov statistic, the
  fast-vs-exact engine parity measure (DESIGN.md §13).
- :func:`distribution_distance` — the same sup-distance over two
  occupancy histograms.
- :func:`t_quantile` — Student's t quantile for an integer number of
  degrees of freedom, the replication confidence intervals' critical value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ks_statistic",
    "distribution_distance",
    "t_quantile",
]


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``sup_x |F_a(x) - F_b(x)|``.

    Used by the distribution-level engine parity tier to quantify
    agreement between fast-path and exact-engine response-time samples
    (DESIGN.md §13); implemented directly so the hot comparison loop
    needs no scipy import.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_statistic requires non-empty samples")
    grid = np.concatenate((a, b))
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def distribution_distance(p: np.ndarray, q: np.ndarray) -> float:
    """KS distance between two discrete distributions given as
    probability vectors over 0..k (padded to common length).

    The occupancy analogue of :func:`ks_statistic`: both engines report
    queue-length occupancy as normalized histograms, so the comparison
    runs over CDFs of the histograms rather than raw samples.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    size = max(p.size, q.size)
    p = np.pad(p, (0, size - p.size))
    q = np.pad(q, (0, size - q.size))
    return float(np.abs(np.cumsum(p) - np.cumsum(q)).max())


def _t_central_mass(theta: float, df: int) -> float:
    """``P(|T| <= sqrt(df) tan theta)`` for Student's t with integer ``df``:
    the finite series of Abramowitz & Stegun 26.7.3 (odd) / 26.7.4 (even)."""
    c2 = math.cos(theta) ** 2
    term = total = 1.0
    for k in range(3 if df % 2 else 2, df - 1, 2):
        term *= (k - 1) / k * c2
        total += term
    if df % 2 == 0:
        return math.sin(theta) * total
    if df == 1:
        return 2.0 / math.pi * theta
    return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)


def t_quantile(p: float, df: int) -> float:
    """Upper quantile ``t`` with ``P(T <= t) = p`` for ``0.5 <= p < 1``.

    Bisects ``theta = atan(t / sqrt(df))`` over ``[0, pi/2)``, on which the
    central mass is monotone, until the bracket is one bit wide.
    """
    if not 0.5 <= p < 1 or df < 1:
        raise ValueError(f"need 0.5 <= p < 1 and df >= 1, got p={p}, df={df}")
    target = 2.0 * p - 1.0
    lo, hi = 0.0, math.pi / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _t_central_mass(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(df) * math.tan(mid)

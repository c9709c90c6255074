"""Sample summaries and distribution distances, numpy only.

- :func:`summarize` — mean, std and percentiles of a sample in one pass
  over a numpy array.
- :func:`ks_statistic` — two-sample Kolmogorov–Smirnov statistic, the
  fast-vs-exact engine parity measure (DESIGN.md §13).
- :func:`distribution_distance` — the same sup-distance over two
  occupancy histograms.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "summarize",
    "ks_statistic",
    "distribution_distance",
]


def summarize(values: np.ndarray) -> dict[str, float]:
    """Vectorized summary of a sample (times in the caller's units)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        keys = ("n", "mean", "std", "min", "p50", "p90", "p99", "max")
        return {key: math.nan for key in keys} | {"n": 0}
    return {
        "n": int(values.size),
        "mean": float(values.mean()),
        "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
        "min": float(values.min()),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
        "p99": float(np.percentile(values, 99)),
        "max": float(values.max()),
    }


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

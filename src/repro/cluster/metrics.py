"""Per-request measurements every engine fills in, apart from
:mod:`repro.cluster.system` so that a fast-engine run loads no exact
engine, and :func:`quantiles`, ``np.quantile`` without the
``np.unique`` call whose ``np.ma.is_masked`` check imports ``numpy.ma``
(10-15 ms in a fresh interpreter)."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.request import Request

__all__ = ["ClusterMetrics", "quantiles"]


def quantiles(values: Sequence[float], q: Sequence[float]) -> list[float]:
    """``np.quantile(values, q).tolist()`` bit for bit, for 1-D float64
    ``values`` (at least one) and fractions ``q`` in [0, 1] (percentile
    ``p`` is ``q = p / 100``, as ``np.percentile`` divides it): numpy's
    ``linear`` method with its neighbour indices, one partition at them,
    its two-sided interpolation, and NaN throughout if one is present."""
    a = np.array(values, dtype=np.float64)
    top = a.size - 1
    virtual = top * np.asarray(q, dtype=np.float64)
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    past_top = virtual >= top
    below[past_top] = above[past_top] = -1
    a.partition(np.concatenate(([0, -1], below, above)))
    if np.isnan(a[-1]):
        return [float(a[-1])] * len(virtual)
    gamma = virtual - below
    low, high = a[below], a[above]
    diff = high - low
    out = low + diff * gamma
    np.subtract(high, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out.tolist()


class ClusterMetrics:
    """Per-request measurement arrays (NumPy, preallocated)."""

    __slots__ = (
        "n",
        "arrival_time",
        "response_time",
        "poll_time",
        "queue_wait",
        "server_id",
        "retries",
        "failed",
    )

    def __init__(self, n: int):
        self.n = n
        self.arrival_time = np.full(n, np.nan)
        self.response_time = np.full(n, np.nan)
        self.poll_time = np.full(n, np.nan)
        self.queue_wait = np.full(n, np.nan)
        self.server_id = np.full(n, -1, dtype=np.int32)
        self.retries = np.zeros(n, dtype=np.int32)
        self.failed = np.zeros(n, dtype=bool)

    def record(self, request: Request) -> None:
        i = request.index
        self.arrival_time[i] = request.arrival_time
        self.response_time[i] = request.response_time
        self.poll_time[i] = request.poll_time
        self.queue_wait[i] = request.queue_wait
        self.server_id[i] = request.server_id
        self.retries[i] = request.retries
        self.failed[i] = request.failed

    def measurement_slice(self, warmup_fraction: float = 0.1) -> np.ndarray:
        """Boolean mask of completed, post-warmup requests."""
        if not 0 <= warmup_fraction < 1:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        mask = np.isfinite(self.response_time) & ~self.failed
        mask[: int(self.n * warmup_fraction)] = False
        return mask

    def summary(self, warmup_fraction: float = 0.1) -> dict[str, float]:
        """Headline statistics over the measurement window (seconds)."""
        mask = self.measurement_slice(warmup_fraction)
        responses = self.response_time[mask]
        polls = self.poll_time[mask]
        p50, p90, p95, p99 = (
            quantiles(responses, (0.5, 0.9, 0.95, 0.99)) if responses.size else [math.nan] * 4
        )
        return {
            "n_measured": int(mask.sum()),
            "n_failed": int(self.failed.sum()),
            "mean_response_time": float(responses.mean()) if responses.size else math.nan,
            "p50_response_time": p50,
            "p90_response_time": p90,
            "p95_response_time": p95,
            "p99_response_time": p99,
            "mean_poll_time": float(polls.mean()) if polls.size else math.nan,
        }

    def server_counts(self, n_servers: int, warmup_fraction: float = 0.1) -> np.ndarray:
        """Requests completed per server over the measurement window."""
        mask = self.measurement_slice(warmup_fraction)
        return np.bincount(self.server_id[mask], minlength=n_servers)

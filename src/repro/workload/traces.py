"""Trace container and statistics.

A :class:`Trace` is a pair of aligned arrays — interarrival gaps and
service times, in seconds — plus metadata. This mirrors how the paper
uses its Teoma traces: "the arrival intervals of those two traces may be
scaled when necessary to generate workloads at various demand levels."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Trace", "TraceStats"]


@dataclass(frozen=True)
class TraceStats:
    """First/second moments of a trace (what Table 1 reports)."""

    n_accesses: int
    arrival_interval_mean: float
    arrival_interval_std: float
    service_time_mean: float
    service_time_std: float

    def row(self, name: str) -> str:
        """Render one Table-1-style row (times in ms)."""
        return (
            f"{name:<20s} {self.n_accesses:>10,d} "
            f"{self.arrival_interval_mean * 1e3:>9.1f}ms {self.arrival_interval_std * 1e3:>9.1f}ms "
            f"{self.service_time_mean * 1e3:>8.1f}ms {self.service_time_std * 1e3:>8.1f}ms"
        )


@dataclass(frozen=True)
class Trace:
    """An aligned (interarrival, service) request sequence.

    Attributes
    ----------
    name:
        Human-readable label ("Fine-Grain trace", ...).
    interarrival:
        Gap before each request, seconds. ``interarrival[0]`` is the gap
        from t=0 to the first arrival.
    service:
        Service demand of each request, seconds.
    metadata:
        Free-form provenance (synthesis spec, scale factors, ...).
    """

    name: str
    interarrival: np.ndarray
    service: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        interarrival = np.ascontiguousarray(self.interarrival, dtype=np.float64)
        service = np.ascontiguousarray(self.service, dtype=np.float64)
        if interarrival.ndim != 1 or service.ndim != 1:
            raise ValueError("interarrival and service must be 1-D")
        if interarrival.shape != service.shape:
            raise ValueError(
                f"length mismatch: {interarrival.shape[0]} gaps vs "
                f"{service.shape[0]} service times"
            )
        if interarrival.size == 0:
            raise ValueError("empty trace")
        if (interarrival < 0).any():
            raise ValueError("negative interarrival gap")
        if (service <= 0).any():
            raise ValueError("non-positive service time")
        object.__setattr__(self, "interarrival", interarrival)
        object.__setattr__(self, "service", service)

    def __len__(self) -> int:
        return int(self.interarrival.shape[0])

    @property
    def arrival_times(self) -> np.ndarray:
        """Arrival instants (cumulative gaps)."""
        return np.cumsum(self.interarrival)

    @property
    def duration(self) -> float:
        """Span from t=0 to the last arrival."""
        return float(self.interarrival.sum())

    def stats(self) -> TraceStats:
        """Table-1-style moments."""
        return TraceStats(
            n_accesses=len(self),
            arrival_interval_mean=float(self.interarrival.mean()),
            arrival_interval_std=float(self.interarrival.std(ddof=1)),
            service_time_mean=float(self.service.mean()),
            service_time_std=float(self.service.std(ddof=1)),
        )

    def head(self, n: int) -> "Trace":
        """The first ``n`` requests (views are copied)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        n = min(n, len(self))
        return Trace(
            name=self.name,
            interarrival=self.interarrival[:n].copy(),
            service=self.service[:n].copy(),
            metadata=dict(self.metadata),
        )

    def tiled(self, n: int, rng: np.random.Generator | None = None) -> "Trace":
        """Extend to at least ``n`` requests by tiling.

        When ``rng`` is given, each extra tile is independently shuffled
        so that tiling does not introduce exact periodicity.
        """
        if n <= len(self):
            return self.head(n)
        reps = -(-n // len(self))  # ceil division
        gap_tiles = [self.interarrival]
        service_tiles = [self.service]
        for _ in range(reps - 1):
            if rng is not None:
                perm = rng.permutation(len(self))
                gap_tiles.append(self.interarrival[perm])
                service_tiles.append(self.service[perm])
            else:
                gap_tiles.append(self.interarrival)
                service_tiles.append(self.service)
        return Trace(
            name=self.name,
            interarrival=np.concatenate(gap_tiles)[:n],
            service=np.concatenate(service_tiles)[:n],
            metadata=dict(self.metadata),
        )

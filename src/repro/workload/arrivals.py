"""Arrival processes: sequences of interarrival times.

Each process generates a vector of interarrival gaps in one vectorized
call; arrival instants are the cumulative sum. The paper's Poisson/Exp
workload uses :class:`PoissonProcess` (the synthesized traces draw their
gaps from a moment-fitted lognormal directly); the
:class:`MarkovModulatedPoisson` process is provided for burstiness
ablations (the paper's §1.1 notes internet arrivals are burstier than
Poisson over long horizons).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "MarkovModulatedPoisson",
]


class ArrivalProcess(ABC):
    """A point process, queried for n interarrival gaps at a time."""

    @abstractmethod
    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Generate ``n`` interarrival gaps (seconds, all > 0 allowed = 0)."""

    @abstractmethod
    def mean_interval(self) -> float:
        """Long-run mean interarrival gap."""


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate

    def interarrivals(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

    def mean_interval(self) -> float:
        return 1.0 / self.rate

    def __repr__(self):
        return f"PoissonProcess(rate={self.rate!r})"


class MarkovModulatedPoisson(ArrivalProcess):
    """A 2-phase MMPP: Poisson rate alternates between two states.

    State ``i`` has arrival rate ``rates[i]`` and exponentially
    distributed sojourn with mean ``sojourn_means[i]``. The long-run mean
    rate is the sojourn-weighted average of the phase rates.
    """

    __slots__ = ("rates", "sojourn_means")

    def __init__(self, rates: tuple[float, float], sojourn_means: tuple[float, float]):
        if len(rates) != 2 or len(sojourn_means) != 2:
            raise ValueError("exactly two phases are supported")
        if min(rates) <= 0 or min(sojourn_means) <= 0:
            raise ValueError("rates and sojourn means must be > 0")
        self.rates = (float(rates[0]), float(rates[1]))
        self.sojourn_means = (float(sojourn_means[0]), float(sojourn_means[1]))

    def mean_rate(self) -> float:
        t0, t1 = self.sojourn_means
        r0, r1 = self.rates
        return (r0 * t0 + r1 * t1) / (t0 + t1)

    def mean_interval(self) -> float:
        return 1.0 / self.mean_rate()

    def interarrivals(self, rng, n):
        """Simulate phase switching; returns exactly ``n`` gaps.

        Generated in blocks: per phase sojourn, draw the Poisson arrivals
        that fit, then switch. O(n) with small constants.
        """
        gaps = np.empty(n, dtype=np.float64)
        filled = 0
        phase = 0 if rng.random() < self.sojourn_means[0] / sum(self.sojourn_means) else 1
        carry = 0.0  # time since last arrival, accumulated across phases
        while filled < n:
            sojourn = rng.exponential(self.sojourn_means[phase])
            rate = self.rates[phase]
            # Expected arrivals this sojourn plus slack; draw a block.
            expected = max(8, int(rate * sojourn * 1.5) + 8)
            block = rng.exponential(1.0 / rate, expected)
            cumulative = np.cumsum(block)
            in_phase = int(np.searchsorted(cumulative, sojourn, side="right"))
            take = min(in_phase, n - filled)
            if take > 0:
                gaps[filled] = block[0] + carry
                gaps[filled + 1 : filled + take] = block[1:take]
                filled += take
                carry = 0.0
                last_arrival = cumulative[take - 1]
            else:
                last_arrival = 0.0
            if in_phase >= take:
                carry += sojourn - last_arrival
            phase = 1 - phase
        return gaps

    def __repr__(self):
        return (
            f"MarkovModulatedPoisson(rates={self.rates!r}, "
            f"sojourn_means={self.sojourn_means!r})"
        )

"""Positive continuous distributions with vectorized sampling.

Every distribution exposes ``sample(rng, size)`` (vectorized — the
guides' "generate arrays in one shot" idiom), plus exact ``mean()`` and
``std()``. :func:`lognormal_from_moments` builds the lognormal matching
a target (mean, std), which is how the Table 1 trace statistics become
samplable distributions.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Lognormal",
    "lognormal_from_moments",
]


class Distribution(ABC):
    """A distribution over positive reals."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw ``size`` samples (or a scalar when ``size is None``)."""

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def std(self) -> float: ...

    def cv(self) -> float:
        """Coefficient of variation std/mean."""
        return self.std() / self.mean()


class Deterministic(Distribution):
    """A point mass at ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError(f"value must be > 0, got {value}")
        self.value = value

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value

    def std(self) -> float:
        return 0.0

    def __repr__(self):
        return f"Deterministic({self.value!r})"


class Exponential(Distribution):
    """Exponential with the given mean."""

    __slots__ = ("_mean",)

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        self._mean = mean

    def sample(self, rng, size=None):
        out = rng.exponential(self._mean, size)
        return float(out) if size is None else out

    def mean(self) -> float:
        return self._mean

    def std(self) -> float:
        return self._mean

    def __repr__(self):
        return f"Exponential(mean={self._mean!r})"


class Uniform(Distribution):
    """Uniform on ``[low, high]`` with ``low >= 0``."""

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float):
        if not 0 <= low < high:
            raise ValueError(f"need 0 <= low < high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng, size=None):
        out = rng.uniform(self.low, self.high, size)
        return float(out) if size is None else out

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def std(self) -> float:
        return (self.high - self.low) / math.sqrt(12.0)

    def __repr__(self):
        return f"Uniform({self.low!r}, {self.high!r})"


class Lognormal(Distribution):
    """Lognormal with underlying normal parameters ``(mu, sigma)``."""

    __slots__ = ("mu", "sigma")

    def __init__(self, mu: float, sigma: float):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.mu = mu
        self.sigma = sigma

    def sample(self, rng, size=None):
        out = rng.lognormal(self.mu, self.sigma, size)
        return float(out) if size is None else out

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def std(self) -> float:
        # expm1 avoids catastrophic cancellation for tiny sigma (the
        # near-deterministic Fine-Grain fit has sigma ~ 0.045).
        variance = math.expm1(self.sigma**2) * math.exp(2 * self.mu + self.sigma**2)
        return math.sqrt(variance)

    def __repr__(self):
        return f"Lognormal(mu={self.mu!r}, sigma={self.sigma!r})"


def lognormal_from_moments(mean: float, std: float) -> Lognormal:
    """Lognormal matching the target (mean, std) exactly.

    Degenerates gracefully: ``std == 0`` yields sigma = 0 (point mass in
    the log domain).
    """
    if mean <= 0 or std < 0:
        raise ValueError(f"need mean > 0 and std >= 0, got ({mean}, {std})")
    # log1p keeps precision when the CV is tiny (near-deterministic fits).
    sigma2 = math.log1p((std / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return Lognormal(mu, math.sqrt(sigma2))

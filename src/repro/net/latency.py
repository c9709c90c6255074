"""Network latency models and the paper's measured constants.

All times are seconds. The paper reports three calibration measurements
on its 100 Mb/s switched Linux cluster (Lucent P550):

- request + response network latency = half a TCP round trip **with**
  connection setup/teardown = **516 µs** total per service access;
- idle UDP ping-pong round trip = **290 µs** (used by load polls);
- TCP round trip **without** setup/teardown = **339 µs** (used by the
  centralized load-index manager that emulates IDEAL).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "PaperNetworkConstants",
    "PAPER_NET",
]


class LatencyModel(ABC):
    """One-way message latency distribution."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one latency in seconds."""

    @abstractmethod
    def mean(self) -> float:
        """Expected latency in seconds."""


class ConstantLatency(LatencyModel):
    """Deterministic latency (the default for all paper experiments)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self.value = value

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantLatency({self.value!r})"


class UniformLatency(LatencyModel):
    """Uniform latency on ``[low, high]``."""

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low!r}, {self.high!r})"


@dataclass(frozen=True)
class PaperNetworkConstants:
    """The measured constants from the paper, in seconds.

    ``request_response_total`` is the *combined* network time for sending
    a service request and receiving its response (516 µs); the simulator
    charges half in each direction. ``udp_rtt`` is the idle UDP ping-pong
    round trip (290 µs); a poll costs half each way. ``tcp_rtt_nosetup``
    is the manager round trip (339 µs). ``discard_timeout`` is the
    slow-poll discard threshold (10 ms). ``sched_quantum`` is the Linux
    scheduler quantum underlying the prototype's 10/20 ms poll-delay
    modes.
    """

    request_response_total: float = 516e-6
    udp_rtt: float = 290e-6
    tcp_rtt_nosetup: float = 339e-6
    discard_timeout: float = 10e-3
    sched_quantum: float = 10e-3

    @property
    def request_one_way(self) -> float:
        """One-way request (or response) latency: 258 µs."""
        return self.request_response_total / 2.0

    @property
    def poll_one_way(self) -> float:
        """One-way load-inquiry latency: 145 µs."""
        return self.udp_rtt / 2.0

    @property
    def manager_one_way(self) -> float:
        """One-way client<->manager latency: 169.5 µs."""
        return self.tcp_rtt_nosetup / 2.0


#: Module-level singleton with the paper's measured values.
PAPER_NET = PaperNetworkConstants()

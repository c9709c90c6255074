"""Seeded datagram-level fault injection for loopback runs.

The sim's chaos layer (:mod:`repro.net.faults`) gates deliveries inside
the event scheduler; over real sockets the equivalent seam is the
``sendto`` call. :class:`LoopbackFaults` decides, per datagram, whether
to drop it, delay it, and/or deliver an extra copy — from a named
deterministic substream, so race-parity tests are reproducible in
distribution (wall-clock interleavings still vary, which is the point).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

__all__ = ["LoopbackFaults"]


class LoopbackFaults:
    """Per-datagram loss/delay/duplication plan.

    Parameters mirror the sim's ``ChaosSpec`` knobs where they overlap:
    ``loss`` / ``duplicate`` are probabilities per send; ``delay`` adds
    ``Uniform(delay_min, delay_max)`` seconds before each delivery.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        loss: float = 0.0,
        duplicate: float = 0.0,
        delay_min: float = 0.0,
        delay_max: float = 0.0,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss!r}")
        if not 0.0 <= duplicate < 1.0:
            raise ValueError(f"duplicate must be in [0, 1): {duplicate!r}")
        if delay_min < 0 or delay_max < delay_min:
            raise ValueError(f"bad delay range: [{delay_min!r}, {delay_max!r}]")
        self._rng = rng
        self.loss = loss
        self.duplicate = duplicate
        self.delay_min = delay_min
        self.delay_max = delay_max
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def _delay(self) -> float:
        if self.delay_max <= 0.0:
            return 0.0
        delay = float(self._rng.uniform(self.delay_min, self.delay_max))
        if delay > 0.0:
            self.delayed += 1
        return delay

    def plan(self) -> Optional[List[float]]:
        """Delivery plan for one datagram.

        Returns ``None`` to drop it, else a list of send delays in
        seconds — one entry per copy to deliver (>= 1 entries).
        """
        if self.loss > 0.0 and self._rng.random() < self.loss:
            self.dropped += 1
            return None
        delays = [self._delay()]
        if self.duplicate > 0.0 and self._rng.random() < self.duplicate:
            self.duplicated += 1
            delays.append(self._delay())
        return delays

    def deliver(self, clock: Any, send: Callable[[Any], None], item: Any) -> None:
        """Hand ``item`` to ``send`` as :meth:`plan` says: never, now,
        after a delay on ``clock``, or twice."""
        plan = self.plan()
        if plan is None:
            return
        for delay in plan:
            if delay <= 0.0:
                send(item)
            else:
                clock.after(delay, send, item)

"""Client node: originates service accesses.

A client is deliberately thin — selection logic lives in the policies —
but it carries two pieces of real machinery:

- per-policy local state (``state`` dict), e.g. the broadcast policy's
  perceived-load table or least-connections counters, which the paper
  stresses are *per-client* (clients do not share observations);
- a scalar CPU occupancy model (:meth:`occupy`) used by the
  prototype-fidelity mode, where sending/receiving polls costs client
  CPU and serializes behind earlier work (connected UDP sockets +
  ``select`` on a busy client node).
"""

from __future__ import annotations

from typing import Any

from repro.sim.engine import Simulator

__all__ = ["ClientNode"]


class ClientNode:
    """An internal client (a node accessing services of other nodes)."""

    __slots__ = ("sim", "node_id", "state", "cpu_busy_until", "cpu_work_total")

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.node_id = node_id
        self.state: dict[str, Any] = {}
        self.cpu_busy_until = 0.0
        self.cpu_work_total = 0.0

    def occupy(self, cost: float) -> float:
        """Charge ``cost`` seconds of client CPU; returns completion delay.

        Work is serialized: it starts at ``max(now, cpu_busy_until)``.
        The returned value is the delay from *now* until this work
        finishes, i.e. what the caller should wait before acting on it.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        now = self.sim.now
        start = now if now > self.cpu_busy_until else self.cpu_busy_until
        self.cpu_busy_until = start + cost
        self.cpu_work_total += cost
        return self.cpu_busy_until - now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClientNode {self.node_id}>"

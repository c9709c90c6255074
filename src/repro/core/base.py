"""Load balancer interface and shared helpers.

A policy is bound to exactly one :class:`~repro.cluster.system.ServiceCluster`
(its *context*), and must route every request it is handed:
``select(client, request)`` must eventually call
``ctx.dispatch(client, request, server_id)`` — synchronously (random,
broadcast, ideal) or after asynchronous message exchanges (polling,
manager).

The context API a policy may use:

- ``ctx.sim`` / ``ctx.rng(name)`` / ``ctx.network`` / ``ctx.constants``
- ``ctx.index_stream(name)`` — a private integer-only substream for
  picks and tie-breaks (``integers(n)`` as a Python int, block-drawn).
- ``ctx.servers`` — the :class:`ServerNode` list (index = node id);
  *only* oracle-style policies may read ``servers[i].queue_length``
  directly — distributed policies must learn load via messages.
- ``ctx.available_servers(client)`` — current candidate ids.
- ``ctx.poll_server(client, server_id, on_reply)`` — one load inquiry;
  ``on_reply(server_id, queue_length, observed_at)`` fires with the
  time the queue length was read at the server.
- ``ctx.dispatch(client, request, server_id)`` — commit the choice.
- ``ctx.telemetry`` — the run's
  :class:`~repro.telemetry.TelemetryCollector`, or ``None`` when
  telemetry is off. Policies that act on load information should guard
  with ``is not None`` and call
  ``ctx.telemetry.note_decision(request, perceived_load, observed_at)``
  when they commit, so spans carry decision staleness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.client import ClientNode
    from repro.cluster.request import Request
    from repro.cluster.system import ServiceCluster

__all__ = ["LoadBalancer", "choose_min_in_table", "choose_min_with_ties", "NoCandidatesError"]


class NoCandidatesError(RuntimeError):
    """Raised when a policy is asked to select with no live servers."""


def choose_min_with_ties(
    candidates: Sequence[int],
    values: Sequence[float],
    rng: np.random.Generator,
) -> int:
    """The candidate with the minimum value; ties broken uniformly.

    Random tie-breaking matters: with identical perceived loads (e.g.
    freshly initialized broadcast tables) deterministic argmin would
    flock every client to server 0.
    """
    if len(candidates) == 0:
        raise NoCandidatesError("empty candidate set")
    if len(candidates) != len(values):
        raise ValueError("candidates and values must have equal length")
    best = min(values)
    ties = [candidate for candidate, value in zip(candidates, values) if value == best]
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


@lru_cache(maxsize=None)
def _all_ids(n: int) -> list[int]:
    return list(range(n))


def choose_min_in_table(
    table: np.ndarray, candidates: Sequence[int], rng: np.random.Generator
) -> int:
    """:func:`choose_min_with_ties` on ``[table[i] for i in candidates]``
    with no O(N) interpreter pass: same return value, same ``rng`` draw.
    The table is read in place only when the candidates are verified to
    be ``0..N-1`` (a C-level list compare); any other list is gathered
    through ``fromiter``, the cheapest list-to-index conversion."""
    n = len(candidates)
    if n == 0:
        raise NoCandidatesError("empty candidate set")
    if n == len(table) and candidates == _all_ids(n):
        values = table
    else:
        values = table[np.fromiter(candidates, np.intp, n)]
    ties = (values == values[values.argmin()]).nonzero()[0]
    pick = ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]
    return candidates[pick]


class LoadBalancer(ABC):
    """Base class for all policies."""

    #: registry key; subclasses override
    name: str = "abstract"

    def __init__(self) -> None:
        self.ctx: Optional["ServiceCluster"] = None

    def bind(self, ctx: "ServiceCluster") -> None:
        """Attach to a cluster; called exactly once by the cluster."""
        if self.ctx is not None:
            raise RuntimeError(f"policy {self.describe()} is already bound")
        self.ctx = ctx
        self._setup()

    def _setup(self) -> None:
        """Hook for post-bind initialization (tables, loops)."""

    @abstractmethod
    def select(self, client: "ClientNode", request: "Request") -> None:
        """Route ``request``: must lead to ``ctx.dispatch(...)``."""

    def notify_dispatch(
        self, client: "ClientNode", request: "Request", server_id: int
    ) -> None:
        """Called by the cluster at dispatch (for local bookkeeping)."""

    def notify_complete(self, client: "ClientNode", request: "Request") -> None:
        """Called by the cluster when the response reaches the client."""

    def describe(self) -> str:
        """Human-readable policy label for tables and figures."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"

"""Seeded, composable message-level fault models.

The paper's §3.1 robustness claim rests on soft state surviving *messy*
failures, not just clean crashes: announcements get lost or duplicated,
links jitter, and node groups partition. This module provides the
network-side half of the chaos subsystem — a :class:`NetworkFaults`
object holding the parameters, partitions, dead-node set and tallies
that :class:`~repro.net.transport.Network` reads to make its verdict on
every send (``Network.send``) and every delivery (``Network._deliver``):

- **loss** — each message is dropped with probability ``loss`` (per
  kind overridable) at send time;
- **duplication** — each delivered message is additionally delivered a
  second time (its own latency draw) with probability ``duplicate``;
- **jitter** — an exponential extra one-way delay with mean
  ``jitter_mean`` seconds is added to every delivery;
- **partitions** — bidirectional cuts between two node groups; messages
  crossing an active cut are dropped at send time, and messages already
  in flight when the cut activates are dropped at delivery time;
- **unreachable** — a (shared, mutable) set of dead nodes; messages to
  or from them are dropped at delivery time, so nothing is ever
  delivered to a crashed node, even if it crashed mid-flight.

All randomness flows through one injected ``numpy`` generator, and every
draw happens in message-send order — which is identical under the heap
and calendar engines — so chaos runs are bit-identical at a fixed seed.

Composability: the fault model sits *behind* ``Network.drop_filter``
(deterministic drops, e.g. the failure injector's dead-node filter run
first and consume no randomness), so both mechanisms stack.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from repro.net.message import MessageKind

__all__ = ["NetworkFaults"]

#: partition handle: an (immutable) pair of node groups
PartitionPair = tuple[frozenset, frozenset]


def _validate_params(loss: float, duplicate: float, jitter_mean: float, where: str = "") -> tuple:
    """Range-check one ``(loss, duplicate, jitter_mean)`` triple."""
    for name, value in (("loss", loss), ("duplicate", duplicate)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{where}{name} must be in [0, 1], got {value}")
    if jitter_mean < 0:
        raise ValueError(f"{where}jitter_mean must be >= 0, got {jitter_mean}")
    if not math.isfinite(jitter_mean):
        raise ValueError(f"{where}jitter_mean must be finite, got {jitter_mean}")
    return float(loss), float(duplicate), float(jitter_mean)


class NetworkFaults:
    """Per-message fault decisions for one :class:`Network`.

    Parameters
    ----------
    rng:
        Generator driving every probabilistic decision (loss, jitter,
        duplication). Use a named cluster substream so runs are
        reproducible and engine-independent.
    loss, duplicate, jitter_mean:
        Default per-message fault parameters (probability, probability,
        mean extra delay in seconds).
    per_kind:
        Optional ``{MessageKind: {"loss"|"duplicate"|"jitter_mean": v}}``
        overrides, e.g. ``{MessageKind.PUBLISH: {"loss": 1.0}}`` to
        silence the availability channel only.
    unreachable:
        Set of node ids considered crashed; held by reference so a
        failure injector can share its live ``dead`` set.
    """

    __slots__ = (
        "rng",
        "loss",
        "duplicate",
        "jitter_mean",
        "per_kind",
        "default_params",
        "kind_params",
        "random",
        "standard_exponential",
        "unreachable",
        "partitions",
        "lost_counts",
        "duplicated_counts",
        "partition_drop_counts",
        "in_flight_drop_counts",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        loss: float = 0.0,
        duplicate: float = 0.0,
        jitter_mean: float = 0.0,
        per_kind: Optional[dict[MessageKind, dict[str, float]]] = None,
        unreachable: Optional[set[int]] = None,
    ):
        self.rng = rng
        #: the generator's bound draws, in the order a send makes them:
        #: loss (uniform), jitter (standard exponential), duplicate (uniform)
        self.random = rng.random
        self.standard_exponential = rng.standard_exponential
        # Nothing mutates the parameters after construction, so each kind's
        # (loss, duplicate, jitter_mean) is resolved here, once, in that order.
        self.default_params = _validate_params(loss, duplicate, jitter_mean)
        self.loss, self.duplicate, self.jitter_mean = self.default_params
        self.per_kind = dict(per_kind) if per_kind else {}
        defaults = {"loss": self.loss, "duplicate": self.duplicate, "jitter_mean": self.jitter_mean}
        self.kind_params = {}
        for kind, overrides in self.per_kind.items():
            unknown = set(overrides) - set(defaults)
            if unknown:
                raise ValueError(f"unknown per-kind override(s) for {kind}: {sorted(unknown)}")
            self.kind_params[kind] = _validate_params(
                **{**defaults, **overrides}, where=f"per_kind[{kind.value}] "
            )
        self.unreachable: set[int] = unreachable if unreachable is not None else set()
        #: active bidirectional cuts
        self.partitions: list[PartitionPair] = []
        # per-kind counters (MessageKind -> int)
        self.lost_counts: dict[MessageKind, int] = {}
        self.duplicated_counts: dict[MessageKind, int] = {}
        self.partition_drop_counts: dict[MessageKind, int] = {}
        self.in_flight_drop_counts: dict[MessageKind, int] = {}

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def add_partition(self, group_a: Iterable[int], group_b: Iterable[int]) -> PartitionPair:
        """Sever all traffic between ``group_a`` and ``group_b``.

        Returns the pair handle for :meth:`remove_partition`. Groups may
        contain both server and client node ids.
        """
        pair = (frozenset(int(n) for n in group_a), frozenset(int(n) for n in group_b))
        if not pair[0] or not pair[1]:
            raise ValueError("partition groups must be non-empty")
        if pair[0] & pair[1]:
            raise ValueError(f"partition groups overlap: {sorted(pair[0] & pair[1])}")
        self.partitions.append(pair)
        return pair

    def remove_partition(self, pair: PartitionPair) -> None:
        """Heal a partition previously created by :meth:`add_partition`."""
        self.partitions.remove(pair)

    def severed(self, src: int, dst: int) -> bool:
        """True when an active partition separates ``src`` from ``dst``."""
        for group_a, group_b in self.partitions:
            if (src in group_a and dst in group_b) or (src in group_b and dst in group_a):
                return True
        return False

    # ------------------------------------------------------------------
    def total_lost(self) -> int:
        """Messages dropped by probabilistic loss (all kinds)."""
        return sum(self.lost_counts.values())

    def total_duplicated(self) -> int:
        """Messages delivered twice (all kinds)."""
        return sum(self.duplicated_counts.values())

    def total_partition_dropped(self) -> int:
        """Messages dropped at a partition cut, send- or delivery-time."""
        return sum(self.partition_drop_counts.values()) + sum(
            self.in_flight_drop_counts.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkFaults loss={self.loss} dup={self.duplicate} "
            f"jitter={self.jitter_mean} partitions={len(self.partitions)} "
            f"lost={self.total_lost()}>"
        )

"""Unicast network and broadcast channel with message accounting.

The default transport applies a per-kind one-way :class:`LatencyModel`
and delivers via a scheduled callback. Every send is tallied (count and
bytes per :class:`MessageKind`), which is what the §2.4 message-scaling
ablation measures.

A message pays only for the gates that are installed: a channel
publish whose recipients all arrive at the same instant
(:meth:`Network.multicast`) rides one scheduler event instead of one
per recipient, and with no gate installed it is one flyweight
:class:`Message` re-addressed to each subscriber in turn; counts and
delivery order are unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import DEFAULT_SIZES, Message, MessageKind
from repro.sim.engine import Simulator

__all__ = ["Network", "BroadcastChannel"]

DeliveryCallback = Callable[[Message], None]


def _deliver_publication(publication: tuple[Sequence[tuple[int, DeliveryCallback]], Message]) -> None:
    """Event handler of an ungated publication: one message, re-addressed per callback."""
    subscribers, message = publication
    for message.dst, on_delivery in subscribers:
        on_delivery(message)


def _deliver_group(group: list[tuple[DeliveryCallback, Message]]) -> None:
    """Event handler of a same-instant group filtered at send time."""
    for on_delivery, message in group:
        on_delivery(message)


class Network:
    """Point-to-point message delivery with per-kind latency models.

    Parameters
    ----------
    sim:
        The simulator whose clock drives deliveries.
    rng:
        Generator used by stochastic latency models.
    default_latency:
        Fallback one-way latency model for kinds without an override.
    """

    __slots__ = (
        "sim",
        "rng",
        "default_latency",
        "_latency_by_kind",
        "message_counts",
        "byte_counts",
        "drop_filter",
        "dropped_counts",
        "switch",
        "faults",
        "deliver_trace",
        "inflight_recorder",
        "drops_recorder",
        "_inflight",
        "_drops_total",
    )

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        default_latency: Optional[LatencyModel] = None,
        switch=None,
    ):
        self.sim = sim
        self.rng = rng
        self.default_latency = default_latency or ConstantLatency(150e-6)
        self._latency_by_kind: dict[MessageKind, LatencyModel] = {}
        self.message_counts: dict[MessageKind, int] = {}
        self.byte_counts: dict[MessageKind, int] = {}
        #: optional callable(Message) -> bool; True means drop (used by
        #: failure injection to partition crashed nodes)
        self.drop_filter: Optional[Callable[[Message], bool]] = None
        self.dropped_counts: dict[MessageKind, int] = {}
        #: optional :class:`repro.net.switch.SwitchedEthernet`; when set,
        #: messages transit the switch (per-port serialization and FIFO
        #: contention) *in addition to* the per-kind latency model, which
        #: then represents protocol-stack time only. Used to validate
        #: the constant-latency abstraction against explicit contention.
        self.switch = switch
        #: optional :class:`repro.net.faults.NetworkFaults`; when set,
        #: sends run through its seeded loss/duplication/jitter/partition
        #: decisions and deliveries re-check partitions + crashed nodes
        #: (chaos campaigns install this; None keeps the exact fast path)
        self.faults = None
        #: optional callable(Message) invoked on every *actual* delivery
        #: (after all fault checks, before the callback); used by the
        #: chaos property tests to assert delivery invariants
        self.deliver_trace: Optional[DeliveryCallback] = None
        #: optional telemetry step recorders (installed by
        #: :class:`repro.telemetry.TelemetryCollector`; None keeps the
        #: allocation-free fast path): in-flight message count and
        #: cumulative dropped-message count over simulated time
        self.inflight_recorder = None
        self.drops_recorder = None
        self._inflight = 0
        self._drops_total = 0

    def set_latency(self, kind: MessageKind, model: LatencyModel) -> None:
        """Override the one-way latency model for one message kind."""
        self._latency_by_kind[kind] = model

    def latency_for(self, kind: MessageKind) -> LatencyModel:
        return self._latency_by_kind.get(kind, self.default_latency)

    def send(
        self,
        kind: MessageKind,
        src: int,
        dst: int,
        payload: Any,
        on_delivery: DeliveryCallback,
        size_bytes: Optional[int] = None,
        extra_delay: float = 0.0,
    ) -> Message:
        """Send a message; ``on_delivery(message)`` fires at arrival.

        ``extra_delay`` is added on top of the sampled network latency
        (used by the prototype model for load-dependent response delays).

        With ``faults`` installed the send-time chaos verdict is made
        here: partition cut (no randomness), then the loss, jitter and
        duplication draws, in that fixed order on the faults' generator.
        """
        size = DEFAULT_SIZES[kind] if size_bytes is None else size_bytes
        sim = self.sim
        message = Message(kind, src, dst, payload, size, sim.now)
        self.message_counts[kind] = self.message_counts.get(kind, 0) + 1
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + size
        if self.drop_filter is not None and self.drop_filter(message):
            self._drop_at_send(kind)
            return message
        faults = self.faults
        duplicated = False
        if faults is not None:
            if faults.partitions and faults.severed(src, dst):
                self._drop_at_send(kind, faults.partition_drop_counts)
                return message
            loss, duplicate, jitter_mean = faults.kind_params.get(kind, faults.default_params)
            if loss > 0.0 and faults.random() < loss:
                self._drop_at_send(kind, faults.lost_counts)
                return message
            if jitter_mean > 0.0:
                # The double exponential(jitter_mean) returns: numpy
                # computes scale * standard_exponential().
                extra_delay += jitter_mean * faults.standard_exponential()
            if duplicate > 0.0 and faults.random() < duplicate:
                duplicated = True
                counts = faults.duplicated_counts
                counts[kind] = counts.get(kind, 0) + 1
        # A constant latency is read, not sampled (it draws nothing).
        model = self._latency_by_kind.get(kind, self.default_latency)
        latency = (
            model.value if type(model) is ConstantLatency else model.sample(self.rng)
        ) + extra_delay
        if self.switch is not None or self.inflight_recorder is not None:
            self._schedule_delivery(latency, message, on_delivery)
        elif faults is None and self.deliver_trace is None:
            sim.after(latency, on_delivery, message)
        else:
            sim.after(latency, self._deliver, (on_delivery, message))
        if duplicated:
            # An independent delivery: its own latency draw, the same
            # delivery-time checks. Not a new send in message_counts
            # (NetworkFaults.duplicated_counts covers it).
            self._schedule_delivery(model.sample(self.rng) + extra_delay, message, on_delivery)
        return message

    def multicast(
        self,
        kind: MessageKind,
        src: int,
        subscribers: Sequence[tuple[int, DeliveryCallback]],
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Send ``payload`` to every ``(node_id, on_delivery)`` subscriber.

        Equivalent to one :meth:`send` per subscriber, in order; which
        gates are installed decides, at send time, what it costs:

        - ``faults``, ``switch`` or a latency that is not a
          :class:`ConstantLatency`: arrivals can differ, so it *is* one
          :meth:`send` per subscriber.
        - Otherwise the sends would land at one instant with consecutive
          sequence numbers, so they ride **one** scheduler event that
          runs the callbacks in subscriber order: same position in the
          event order, same callback order, same counts, fewer events.
          ``drop_filter``, ``deliver_trace`` and ``inflight_recorder``
          each judge a :class:`Message` per recipient; with none of them
          installed nothing reads one, and the publication is a single
          flyweight :class:`Message` (contract: :class:`BroadcastChannel`).

        The event holds ``subscribers``: do not mutate it afterwards.
        """
        model = self.latency_for(kind)
        if (
            type(model) is not ConstantLatency
            or self.faults is not None
            or self.switch is not None
        ):
            for node_id, on_delivery in subscribers:
                self.send(kind, src, node_id, payload, on_delivery, size_bytes)
            return
        if not subscribers:
            return
        size = DEFAULT_SIZES[kind] if size_bytes is None else size_bytes
        now = self.sim.now
        fan_out = len(subscribers)
        self.message_counts[kind] = self.message_counts.get(kind, 0) + fan_out
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + fan_out * size
        drop_filter = self.drop_filter
        recorder = self.inflight_recorder
        if drop_filter is None and recorder is None and self.deliver_trace is None:
            message = Message(kind, src, subscribers[0][0], payload, size, now)
            self.sim.after(model.value, _deliver_publication, (subscribers, message))
            return
        group = []
        for node_id, on_delivery in subscribers:
            message = Message(kind, src, node_id, payload, size, now)
            if drop_filter is not None and drop_filter(message):
                self._drop_at_send(kind)
            else:
                group.append((on_delivery, message))
        if not group:
            return
        if recorder is not None:
            for _ in group:
                self._inflight += 1
                recorder.record(now, float(self._inflight))
        if recorder is None and self.deliver_trace is None:
            self.sim.after(model.value, _deliver_group, group)
        else:
            self.sim.after(model.value, self._deliver_gated_group, group)

    def _deliver_gated_group(self, group: list[tuple[DeliveryCallback, Message]]) -> None:
        """Event handler of a group sent with a delivery trace or
        telemetry installed: each recipient passes the delivery gate."""
        deliver = self._deliver
        for pair in group:
            deliver(pair)

    def _drop_at_send(self, kind: MessageKind, cause_counts: Optional[dict] = None) -> None:
        """Tally a send-time drop (cold path), and why if the faults did it."""
        if cause_counts is not None:
            cause_counts[kind] = cause_counts.get(kind, 0) + 1
        self.dropped_counts[kind] = self.dropped_counts.get(kind, 0) + 1
        self._note_drop()

    def _note_drop(self) -> None:
        """Record a lost message on the telemetry drop series (cold path)."""
        recorder = self.drops_recorder
        if recorder is not None:
            self._drops_total += 1
            recorder.record(self.sim.now, float(self._drops_total))

    def _schedule_delivery(
        self, latency: float, message: Message, on_delivery: DeliveryCallback
    ) -> None:
        """Schedule an arrival through whatever is installed (switch,
        in-flight telemetry, delivery gate); :meth:`send` calls this for
        duplicates and when a switch or the recorder is in the way."""
        recorder = self.inflight_recorder
        if recorder is not None:
            self._inflight += 1
            recorder.record(self.sim.now, float(self._inflight))
        if self.switch is None:
            self.sim.after(latency, self._deliver, (on_delivery, message))
        elif self.faults is None and self.deliver_trace is None and recorder is None:
            self.sim.after(
                latency,
                lambda m=message: self.switch.transit(m, on_delivery),
            )
        else:
            self.sim.after(
                latency,
                lambda m=message: self.switch.transit(
                    m, lambda mm: self._deliver((on_delivery, mm))
                ),
            )

    def _deliver(self, pair: tuple[DeliveryCallback, Message]) -> None:
        """Final delivery gate: drop in-flight messages whose endpoints
        crashed or were partitioned away while the message travelled."""
        on_delivery, message = pair
        recorder = self.inflight_recorder
        if recorder is not None:
            # The message left flight whether or not the gate blocks it.
            self._inflight -= 1
            recorder.record(self.sim.now, float(self._inflight))
        faults = self.faults
        if faults is not None and (
            message.dst in faults.unreachable
            or message.src in faults.unreachable
            or (faults.partitions and faults.severed(message.src, message.dst))
        ):
            counts = faults.in_flight_drop_counts
            counts[message.kind] = counts.get(message.kind, 0) + 1
            self._note_drop()
            return
        if self.deliver_trace is not None:
            self.deliver_trace(message)
        on_delivery(message)

    def total_messages(self) -> int:
        """Total messages sent (all kinds, including dropped)."""
        return sum(self.message_counts.values())

    def reset_counters(self) -> None:
        """Zero the accounting tallies (e.g. after warmup)."""
        self.message_counts.clear()
        self.byte_counts.clear()
        self.dropped_counts.clear()


class BroadcastChannel:
    """A one-to-many channel (IP multicast / well-known pub-sub channel).

    Subscribers register a delivery callback; a publish is accounted as
    one message per subscriber, matching the paper's accounting in which
    broadcast cost scales with the number of clients. The fan-out is
    :meth:`Network.multicast`, which carries same-instant arrivals on a
    single scheduler event.

    The :class:`Message` handed to a subscriber belongs to the
    publication: ``dst`` names the recipient for the duration of its
    callback only, and a subscriber that keeps the message copies it. A
    subscriber added while a publication is in flight does not receive
    it; one removed still does.
    """

    __slots__ = ("network", "kind", "_subscribers")

    def __init__(self, network: Network, kind: MessageKind = MessageKind.BROADCAST):
        self.network = network
        self.kind = kind
        self._subscribers: list[tuple[int, DeliveryCallback]] = []

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def subscribe(self, node_id: int, on_delivery: DeliveryCallback) -> None:
        """Register ``on_delivery`` for messages published on the channel."""
        # Copy-on-write, as unsubscribe: an in-flight event holds the old list.
        self._subscribers = [*self._subscribers, (node_id, on_delivery)]

    def unsubscribe(self, node_id: int) -> None:
        """Remove all subscriptions for ``node_id``."""
        self._subscribers = [(n, cb) for (n, cb) in self._subscribers if n != node_id]

    def publish(self, src: int, payload: Any, size_bytes: Optional[int] = None) -> int:
        """Publish to all subscribers; returns the fan-out count."""
        self.network.multicast(self.kind, src, self._subscribers, payload, size_bytes)
        return len(self._subscribers)

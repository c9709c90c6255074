"""Unicast network and broadcast channel with message accounting.

The default transport applies a per-kind one-way :class:`LatencyModel`
and delivers via a scheduled callback. Every send is tallied (count and
bytes per :class:`MessageKind`), which is what the §2.4 message-scaling
ablation measures.

A channel publish whose recipients all arrive at the same instant
(:meth:`Network.multicast`) rides one scheduler event instead of one
per recipient; messages, counts and delivery order are unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import DEFAULT_SIZES, Message, MessageKind
from repro.sim.engine import Simulator

__all__ = ["Network", "BroadcastChannel"]

DeliveryCallback = Callable[[Message], None]


def _deliver_group(group: list[tuple[DeliveryCallback, Message]]) -> None:
    """Event handler of an ungated same-instant delivery group."""
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
        """
        size = DEFAULT_SIZES[kind] if size_bytes is None else size_bytes
        sim = self.sim
        message = Message(kind, src, dst, payload, size, sim.now)
        self.message_counts[kind] = self.message_counts.get(kind, 0) + 1
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + size
        if self.drop_filter is not None and self.drop_filter(message):
            self.dropped_counts[kind] = self.dropped_counts.get(kind, 0) + 1
            self._note_drop()
            return message
        faults = self.faults
        duplicated = False
        if faults is not None:
            verdict = faults.on_send(message)
            if verdict is None:
                self.dropped_counts[kind] = self.dropped_counts.get(kind, 0) + 1
                self._note_drop()
                return message
            jitter, duplicated = verdict
            extra_delay += jitter
        # A constant latency is read, not sampled (it draws nothing), and
        # an ungated network schedules the arrival here: the test is the
        # one _schedule_delivery makes, made once.
        model = self._latency_by_kind.get(kind, self.default_latency)
        latency = (
            model.value if type(model) is ConstantLatency else model.sample(self.rng)
        ) + extra_delay
        if (
            faults is None
            and self.switch is None
            and self.deliver_trace is None
            and self.inflight_recorder is None
        ):
            sim.after(latency, on_delivery, message)
            return message
        self._schedule_delivery(latency, message, on_delivery)
        if duplicated:
            # The duplicate is an independent delivery: its own latency
            # draw, subject to the same delivery-time fault checks. It
            # does not count as a new send in message_counts (the
            # NetworkFaults.duplicated_counts tally covers it).
            dup_latency = model.sample(self.rng) + extra_delay
            self._schedule_delivery(dup_latency, message, on_delivery)
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

        Equivalent to one :meth:`send` per subscriber, in order. When
        the kind's latency is a :class:`ConstantLatency` and neither
        ``faults`` nor ``switch`` is installed, those sends would land
        at one instant with consecutive sequence numbers, so they ride
        **one** scheduler event that runs the callbacks in subscriber
        order: same position in the event order, same callback order,
        fewer events. Everything else stays per recipient: one
        :class:`Message` each, the counts, the ``drop_filter`` verdict
        at send time, and ``deliver_trace`` / ``inflight_recorder`` at
        delivery time (decided at send time, as in :meth:`send`).
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
        group = []
        for node_id, on_delivery in subscribers:
            message = Message(kind, src, node_id, payload, size, now)
            if drop_filter is not None and drop_filter(message):
                self.dropped_counts[kind] = self.dropped_counts.get(kind, 0) + 1
                self._note_drop()
            else:
                group.append((on_delivery, message))
        if not group:
            return
        recorder = self.inflight_recorder
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

    def _note_drop(self) -> None:
        """Record a lost message on the telemetry drop series (cold path)."""
        recorder = self.drops_recorder
        if recorder is not None:
            self._drops_total += 1
            recorder.record(self.sim.now, float(self._drops_total))

    def _schedule_delivery(
        self, latency: float, message: Message, on_delivery: DeliveryCallback
    ) -> None:
        """Schedule an arrival that transits the switch, passes the
        delivery gate (faults/trace/telemetry installed), or both; the
        ungated, switchless arrival is scheduled by :meth:`send` itself."""
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
        if self.faults is not None and self.faults.blocks_delivery(message):
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

    Subscribers register a delivery callback; a publish fans out one
    message per subscriber (each with its own latency draw), matching the
    paper's accounting in which broadcast cost scales with the number of
    clients. The fan-out is :meth:`Network.multicast`, which carries
    same-instant arrivals on a single scheduler event.
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
        self._subscribers.append((node_id, on_delivery))

    def unsubscribe(self, node_id: int) -> None:
        """Remove all subscriptions for ``node_id``."""
        self._subscribers = [(n, cb) for (n, cb) in self._subscribers if n != node_id]

    def publish(self, src: int, payload: Any, size_bytes: Optional[int] = None) -> int:
        """Publish to all subscribers; returns the fan-out count."""
        self.network.multicast(self.kind, src, self._subscribers, payload, size_bytes)
        return len(self._subscribers)

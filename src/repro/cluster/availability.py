"""Service availability subsystem (paper §3.1).

"Our service availability subsystem is based on a well-known
publish/subscribe channel ... Each cluster node can elect to provide
services through repeatedly publishing the service type, the data
partitions it hosts, and the access interface. Published information is
kept as soft state ... it has to be refreshed frequently to stay alive.
Each client node subscribes to this channel and maintains a
service/partition mapping table."

- :class:`AvailabilityChannel` — the well-known channel (multicast).
- :class:`ServicePublisher` — server-side announcer with randomized
  refresh intervals (0.5–1.5× the mean, avoiding self-synchronization
  exactly as the broadcast policy does).
- :class:`ServiceMappingTable` — client-side soft-state table; entries
  expire ``ttl`` seconds after their last refresh, so crashed servers
  disappear from candidate sets without any explicit failure signal.

:func:`install` adds it to a built cluster: a table per selector view
and a publisher per server. Neptune's own (§1), it is not one of the
seven optional slots: it fills the cluster's ``mapping_tables`` and
``publishers``, sets ``availability_enabled`` and rebinds the
lifecycle's membership to :func:`soft_state_members`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.net.message import Message, MessageKind
from repro.net.transport import BroadcastChannel, Network
from repro.sim.engine import EventHandle, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.system import ServiceCluster

__all__ = [
    "DEFAULT_SERVICE", "AvailabilityChannel", "ServicePublisher", "ServiceMappingTable",
    "soft_state_members", "install",
]

#: service name used when the availability subsystem is enabled with the
#: default single fully-replicated service (simulated and live alike)
DEFAULT_SERVICE = "service"


class AvailabilityChannel(BroadcastChannel):
    """The well-known publish/subscribe channel (PUBLISH messages)."""

    def __init__(self, network: Network):
        super().__init__(network, kind=MessageKind.PUBLISH)


class ServicePublisher:
    """Periodically announces the services/partitions a node hosts."""

    __slots__ = (
        "sim",
        "channel",
        "node_id",
        "entries",
        "mean_interval",
        "rng",
        "_handle",
        "publish_count",
    )

    def __init__(
        self,
        sim: Simulator,
        channel: AvailabilityChannel,
        node_id: int,
        entries: Iterable[tuple[str, int]],
        mean_interval: float,
        rng: np.random.Generator,
    ):
        if mean_interval <= 0:
            raise ValueError(f"mean_interval must be > 0, got {mean_interval}")
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        self.entries = list(entries)
        self.mean_interval = mean_interval
        self.rng = rng
        self._handle: Optional[EventHandle] = None
        self.publish_count = 0

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> None:
        """Publish immediately and begin the refresh loop."""
        if self._handle is not None:
            return
        self._publish()

    def stop(self) -> None:
        """Stop refreshing (a crashed node goes silent)."""
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None

    def _publish(self) -> None:
        self.publish_count += 1
        self.channel.publish(
            self.node_id, payload=(self.node_id, tuple(self.entries), self.sim.now)
        )
        # Randomized interval in [0.5, 1.5] x mean: soft state refresh
        # without fleet-wide self-synchronization (Floyd & Jacobson).
        delay = float(self.rng.uniform(0.5, 1.5)) * self.mean_interval
        self._handle = self.sim.after(delay, self._publish)


class ServiceMappingTable:
    """A client's soft-state view of who hosts what.

    ``available(service, partition)`` returns nodes whose last refresh
    is within ``ttl``; expiry is evaluated lazily at query time (no
    sweeper events on the hot path).
    """

    __slots__ = ("sim", "ttl", "_last_seen", "updates_received")

    def __init__(self, sim: Simulator, ttl: float):
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.sim = sim
        self.ttl = ttl
        # (service, partition) -> {node_id: last_seen_time}
        self._last_seen: dict[tuple[str, int], dict[int, float]] = {}
        self.updates_received = 0

    def subscribe(self, channel: AvailabilityChannel, client_id: int) -> None:
        channel.subscribe(client_id, self._on_publish)

    def _on_publish(self, message: Message) -> None:
        node_id, entries, _published_at = message.payload
        now = self.sim.now
        self.updates_received += 1
        for key in entries:
            self._last_seen.setdefault(key, {})[node_id] = now

    def available(self, service: str, partition: int = 0) -> list[int]:
        """Live replica nodes for (service, partition), sorted by id."""
        entry = self._last_seen.get((service, partition))
        if not entry:
            return []
        deadline = self.sim.now - self.ttl
        return sorted(node for node, seen in entry.items() if seen >= deadline)


def soft_state_members(tables: dict[int, ServiceMappingTable]) -> Callable:
    """The lifecycle's membership (its ``_members``) over soft state:
    the live replicas of the default service in the selector's table
    (``tables``: selector node id -> table), whatever the static pool."""

    def members(selector, _static: list[int]) -> list[int]:
        return tables[selector.node_id].available(DEFAULT_SERVICE, 0)

    return members


def install(cluster: "ServiceCluster", refresh: float = 1.0, ttl: float = 3.0) -> None:
    """Run soft-state availability on ``cluster``: servers publish every
    ``refresh`` seconds on average, entries expire ``ttl`` seconds after
    their last refresh. The dispatcher views subscribe beside the
    clients', only servers the autoscaler leaves active publish, and the
    autoscaler's control loop starts once they do."""
    channel = AvailabilityChannel(cluster.network)
    tier = cluster.dispatchers
    agents = [] if tier is None else [d.agent for d in tier.dispatchers]
    view_lag = 0.0 if tier is None else tier.policy.view_lag
    for node in [*cluster.clients, *agents]:
        table = ServiceMappingTable(cluster.sim, ttl=ttl)
        if view_lag > 0.0 and node in agents:
            # Stale-view fault model: the dispatcher's view sees every
            # PUBLISH a constant ``view_lag`` late.
            channel.subscribe(
                node.node_id,
                lambda message, _table=table: cluster.sim.after(
                    view_lag, _table._on_publish, message  # noqa: SLF001
                ),
            )
        else:
            table.subscribe(channel, node.node_id)
        # Prime the table so the first arrivals (before the first publish
        # round lands) see the initially-active membership.
        for server in cluster.servers:
            if cluster.should_publish(server.node_id):
                table._on_publish(  # noqa: SLF001 - controlled priming
                    Message(
                        MessageKind.PUBLISH,
                        server.node_id,
                        node.node_id,
                        (server.node_id, ((DEFAULT_SERVICE, 0),), 0.0),
                        0,
                        0.0,
                    )
                )
        cluster.mapping_tables[node.node_id] = table
    for server in cluster.servers:
        publisher = ServicePublisher(
            cluster.sim,
            channel,
            server.node_id,
            entries=[(DEFAULT_SERVICE, 0)],
            mean_interval=refresh,
            rng=cluster.rng_hub.stream(f"availability.publish.{server.node_id}"),
        )
        cluster.publishers[server.node_id] = publisher
        # Parked (not-yet-provisioned) servers stay silent until the
        # autoscaler activates them.
        if cluster.should_publish(server.node_id):
            publisher.start()
    cluster.availability_enabled = True
    cluster.rebind(_members=soft_state_members(cluster.mapping_tables))
    if cluster.autoscaler is not None:
        cluster.autoscaler.start()

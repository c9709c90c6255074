"""Failure injection: crashes, stragglers, partitions, message chaos.

The paper's architecture claim (§3.1) is that the flat, soft-state
design "allows the service infrastructure to operate smoothly in the
presence of transient failures and service evolution". This module
makes that claim testable, at two levels:

- :class:`FailureInjector` — the original clean-failure tool: crash a
  server at a chosen time (it goes network-silent and drops its queue),
  recover it later, and verify that clients route around the failure
  via mapping-table expiry plus request retries.
- :class:`ChaosInjector` — the campaign tool: on top of crashes it
  injects *stragglers* (a server's service rate degraded by a factor
  for an interval), *crash storms* (correlated multi-node crashes),
  and *partition schedules* (timed bidirectional cuts), and installs a
  :class:`~repro.net.faults.NetworkFaults` for message loss,
  duplication, and jitter. Every random decision flows through named
  cluster substreams (``chaos.net``, ``chaos.schedule``) so a chaos
  run is bit-identical at a fixed seed under both event engines.

:func:`resilience_counters` condenses a finished chaos run into the
flat ``{name: float}`` dict the experiment layer archives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.net.faults import NetworkFaults, PartitionPair
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import ClusterMetrics
    from repro.cluster.system import ServiceCluster

__all__ = ["FailureInjector", "ChaosSpec", "ChaosInjector", "resilience_counters"]

#: share of the workload horizon a straggle, a partition and a crash
#: storm last
STRAGGLE_FRAC = 0.25
PARTITION_FRAC = 0.12
STORM_FRAC = 0.1


class FailureInjector:
    """Schedules crashes/recoveries against a :class:`ServiceCluster`."""

    def __init__(self, cluster: "ServiceCluster"):
        self.cluster = cluster
        self.dead: set[int] = set()
        self.crash_log: list[tuple[float, int, str]] = []
        # Compose with (never clobber) any filter already installed —
        # a message is dropped when *either* filter says so.
        previous = cluster.network.drop_filter
        if previous is None:
            cluster.network.drop_filter = self._drop_if_dead
        else:
            cluster.network.drop_filter = (
                lambda message: previous(message) or self._drop_if_dead(message)
            )

    def _drop_if_dead(self, message: Message) -> bool:
        return message.src in self.dead or message.dst in self.dead

    def schedule_crash(self, node_id: int, at: float) -> None:
        """Crash server ``node_id`` at simulation time ``at``."""
        self.cluster.sim.at(at, self._crash, node_id)

    def schedule_recovery(self, node_id: int, at: float) -> None:
        """Recover server ``node_id`` at simulation time ``at``."""
        self.cluster.sim.at(at, self._recover, node_id)

    def _crash(self, node_id: int) -> None:
        cluster = self.cluster
        server = cluster.servers[node_id]
        if not server.alive:
            return
        server.alive = False
        self.dead.add(node_id)
        self.crash_log.append((cluster.sim.now, node_id, "crash"))
        publisher = cluster.publishers.get(node_id)
        if publisher is not None:
            publisher.stop()
        # Requests queued or in service are lost; hand them back to the
        # cluster for retry (a real client would detect this by timeout —
        # the cluster also supports that path via request_timeout).
        for request in server.drain():
            cluster.handle_server_loss(request)

    def _recover(self, node_id: int) -> None:
        cluster = self.cluster
        server = cluster.servers[node_id]
        if server.alive:
            return
        server.alive = True
        self.dead.discard(node_id)
        self.crash_log.append((cluster.sim.now, node_id, "recover"))
        publisher = cluster.publishers.get(node_id)
        # A recovering server re-advertises only when nothing else holds
        # it out of the pool: a server that crashed *while withdrawn* by
        # its overload controller must stay silent until the controller
        # itself rejoins (its withdrawn flag survived the crash), and a
        # server the autoscaler parked stays parked across the cycle.
        if publisher is not None and cluster.should_publish(node_id):
            publisher.start()

    # ------------------------------------------------------------------
    # dispatcher-tier faults (require cluster.dispatchers)
    # ------------------------------------------------------------------
    def schedule_dispatcher_crash(self, index: int, at: float) -> None:
        """Crash dispatcher ``index`` at simulation time ``at``: it goes
        network-silent (forwards and responses to it are swallowed via
        the shared ``dead`` set) until recovery."""
        self.cluster.sim.at(at, self._crash_dispatcher, index)

    def schedule_dispatcher_recovery(self, index: int, at: float) -> None:
        """Recover dispatcher ``index`` at simulation time ``at``."""
        self.cluster.sim.at(at, self._recover_dispatcher, index)

    def _crash_dispatcher(self, index: int) -> None:
        tier = self.cluster.dispatchers
        assert tier is not None, "dispatcher faults require the dispatcher tier"
        dispatcher = tier.dispatchers[index]
        if not dispatcher.alive:
            return
        dispatcher.alive = False
        self.dead.add(dispatcher.node_id)
        self.crash_log.append((self.cluster.sim.now, dispatcher.node_id, "crash"))

    def _recover_dispatcher(self, index: int) -> None:
        tier = self.cluster.dispatchers
        assert tier is not None, "dispatcher faults require the dispatcher tier"
        dispatcher = tier.dispatchers[index]
        if dispatcher.alive:
            return
        dispatcher.alive = True
        self.dead.discard(dispatcher.node_id)
        self.crash_log.append((self.cluster.sim.now, dispatcher.node_id, "recover"))


@dataclass(frozen=True)
class ChaosSpec:
    """Declarative chaos intensity knobs (all JSON-native scalars).

    The spec is deliberately *declarative* — counts and fractions, not
    concrete times or node ids — so it can live inside a
    :class:`~repro.experiments.config.SimulationConfig` and participate
    in the content-addressed result cache. The concrete schedule
    (which nodes, when) is derived deterministically from the cluster's
    ``chaos.schedule`` RNG substream at install time.

    Message-level faults (applied for the whole run):

    - ``loss`` / ``duplicate`` — per-message probabilities;
    - ``jitter_mean`` — mean extra exponential one-way delay (seconds).

    Scheduled events (start times uniform in the middle of the run):

    - ``stragglers`` servers have their service rate divided by
      ``straggle_factor`` for ``STRAGGLE_FRAC`` of the workload horizon;
    - ``partitions`` timed cuts isolate ``partition_servers`` servers
      from everyone else for ``PARTITION_FRAC`` of the horizon;
    - ``storms`` correlated crash events take ``storm_size`` servers
      down simultaneously, recovering after ``STORM_FRAC`` of the
      horizon;
    - ``dispatcher_storms`` crash events take ``dispatcher_storm_size``
      dispatchers network-silent, recovering after
      ``dispatcher_storm_frac`` of the horizon (at least one dispatcher
      always survives, mirroring the server-storm clamp). They require
      ``dispatcher_params`` on the config — scheduling them against a
      cluster without the tier is a loud error.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    jitter_mean: float = 0.0
    stragglers: int = 0
    straggle_factor: float = 4.0
    partitions: int = 0
    partition_servers: int = 1
    storms: int = 0
    storm_size: int = 2
    dispatcher_storms: int = 0
    dispatcher_storm_size: int = 1
    dispatcher_storm_frac: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(f"duplicate must be in [0, 1], got {self.duplicate}")
        if not 0 <= self.jitter_mean < math.inf:
            raise ValueError(f"jitter_mean must be finite and >= 0, got {self.jitter_mean}")
        if not 0 < self.straggle_factor < math.inf:
            raise ValueError(
                f"straggle_factor must be finite and > 0, got {self.straggle_factor}"
            )
        for name in (
            "stragglers",
            "partitions",
            "partition_servers",
            "storms",
            "storm_size",
            "dispatcher_storms",
            "dispatcher_storm_size",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
        if not 0.0 < self.dispatcher_storm_frac <= 1.0:
            raise ValueError(
                f"dispatcher_storm_frac must be in (0, 1], got {self.dispatcher_storm_frac}"
            )

    @classmethod
    def field_names(cls) -> frozenset:
        """The set of knob names (used to validate config dicts)."""
        return frozenset(f.name for f in fields(cls))


class ChaosInjector(FailureInjector):
    """Drives a full chaos campaign against one cluster run.

    Construction installs a :class:`NetworkFaults` on the cluster's
    network (sharing this injector's live ``dead`` set, so in-flight
    messages to crashing nodes are swallowed) and — when a ``spec`` is
    given — derives the whole event schedule from the cluster's
    ``chaos.schedule`` substream. The workload must already be loaded
    (the schedule scales with the arrival horizon).

    Every scheduled event is recorded in :attr:`events` as
    ``(kind, start_time)``; the recovery-time metric is computed against
    these start times after the run.
    """

    def __init__(self, cluster: "ServiceCluster", spec: Optional[ChaosSpec] = None):
        super().__init__(cluster)
        spec = spec if spec is not None else ChaosSpec()
        self.spec = spec
        self.faults = NetworkFaults(
            cluster.rng_hub.stream("chaos.net"),
            loss=spec.loss,
            duplicate=spec.duplicate,
            jitter_mean=spec.jitter_mean,
            unreachable=self.dead,
        )
        cluster.network.faults = self.faults
        #: (kind, start_time) for every scheduled chaos event
        self.events: list[tuple[str, float]] = []
        #: human-readable event log, appended as events execute
        self.chaos_log: list[tuple[float, str, str]] = []
        self._schedule(spec)

    # ------------------------------------------------------------------
    # schedule derivation
    # ------------------------------------------------------------------
    def _schedule(self, spec: ChaosSpec) -> None:
        if (
            spec.stragglers == 0
            and spec.partitions == 0
            and spec.storms == 0
            and spec.dispatcher_storms == 0
        ):
            return
        cluster = self.cluster
        if cluster._arrival_times is None:  # noqa: SLF001 - lifecycle check
            raise ValueError(
                "ChaosInjector with scheduled events requires load_workload() first "
                "(the event schedule scales with the arrival horizon)"
            )
        horizon = float(cluster._arrival_times[-1])  # noqa: SLF001
        rng = cluster.rng_hub.stream("chaos.schedule")
        n = cluster.n_servers

        def start_time() -> float:
            # Events start in the middle of the run so the warmup slice
            # stays clean and there is workload left to recover into.
            return float(rng.uniform(0.05, 0.7)) * horizon

        for _ in range(spec.stragglers):
            node = int(rng.integers(0, n))
            at = start_time()
            self.schedule_straggle(node, at, STRAGGLE_FRAC * horizon, spec.straggle_factor)
        for _ in range(spec.partitions):
            k = min(max(1, spec.partition_servers), n - 1)
            isolated = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
            everyone_else = [i for i in range(n) if i not in isolated] + [
                client.node_id for client in cluster.clients
            ]
            at = start_time()
            self.schedule_partition(isolated, everyone_else, at, PARTITION_FRAC * horizon)
        for _ in range(spec.storms):
            k = min(max(1, spec.storm_size), n - 1)
            victims = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
            at = start_time()
            self.events.append(("storm", at))
            for node in victims:
                self.schedule_crash(node, at)
                self.schedule_recovery(node, at + STORM_FRAC * horizon)
        # Dispatcher storms draw *after* every server-fault draw, so
        # adding them to a spec never perturbs an existing server-fault
        # schedule at the same seed.
        if spec.dispatcher_storms == 0:
            return
        tier = cluster.dispatchers
        if tier is None:
            raise ValueError(
                "dispatcher_storms require the dispatcher tier "
                "(set dispatcher_params on the config)"
            )
        n_dispatchers = len(tier.dispatchers)
        for _ in range(spec.dispatcher_storms):
            # Mirror the server-storm clamp: at least one dispatcher
            # survives (a 1-dispatcher tier cannot storm).
            k = min(max(1, spec.dispatcher_storm_size), n_dispatchers - 1)
            if k == 0:
                continue
            victims = sorted(
                int(i) for i in rng.choice(n_dispatchers, size=k, replace=False)
            )
            at = start_time()
            self.events.append(("dispatcher_storm", at))
            for index in victims:
                self.schedule_dispatcher_crash(index, at)
                self.schedule_dispatcher_recovery(
                    index, at + spec.dispatcher_storm_frac * horizon
                )

    # ------------------------------------------------------------------
    # event primitives (also usable directly by tests)
    # ------------------------------------------------------------------
    def schedule_straggle(
        self, node_id: int, at: float, duration: float, factor: float
    ) -> None:
        """Divide server ``node_id``'s speed by ``factor`` over
        ``[at, at + duration)``; multiplicative, so overlaps compose."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        self.events.append(("straggle", at))
        self.cluster.sim.at(at, self._straggle_start, (node_id, factor))
        self.cluster.sim.at(at + duration, self._straggle_end, (node_id, factor))

    def _straggle_start(self, arg: tuple[int, float]) -> None:
        node_id, factor = arg
        server = self.cluster.servers[node_id]
        server.set_speed(server.speed / factor)
        self.chaos_log.append((self.cluster.sim.now, "straggle_start", f"server {node_id}"))

    def _straggle_end(self, arg: tuple[int, float]) -> None:
        node_id, factor = arg
        server = self.cluster.servers[node_id]
        server.set_speed(server.speed * factor)
        self.chaos_log.append((self.cluster.sim.now, "straggle_end", f"server {node_id}"))

    def schedule_partition(
        self,
        group_a: Iterable[int],
        group_b: Iterable[int],
        at: float,
        duration: float,
    ) -> None:
        """Sever ``group_a`` from ``group_b`` over ``[at, at + duration)``.

        Messages crossing the cut are dropped at send time; messages
        already in flight when the cut activates are dropped at
        delivery time.
        """
        pair = (frozenset(int(n) for n in group_a), frozenset(int(n) for n in group_b))
        self.events.append(("partition", at))
        self.cluster.sim.at(at, self._partition_start, pair)
        self.cluster.sim.at(at + duration, self._partition_end, pair)

    def _partition_start(self, pair: PartitionPair) -> None:
        self.faults.add_partition(pair[0], pair[1])
        self.chaos_log.append(
            (self.cluster.sim.now, "partition_start", f"isolated {sorted(pair[0])}")
        )

    def _partition_end(self, pair: PartitionPair) -> None:
        self.faults.remove_partition(pair)
        self.chaos_log.append(
            (self.cluster.sim.now, "partition_end", f"healed {sorted(pair[0])}")
        )

    def _crash(self, node_id: int) -> None:  # extend the log, keep semantics
        super()._crash(node_id)
        self.chaos_log.append((self.cluster.sim.now, "crash", f"server {node_id}"))

    def _recover(self, node_id: int) -> None:
        super()._recover(node_id)
        self.chaos_log.append((self.cluster.sim.now, "recover", f"server {node_id}"))

    def _crash_dispatcher(self, index: int) -> None:
        super()._crash_dispatcher(index)
        self.chaos_log.append(
            (self.cluster.sim.now, "dispatcher_crash", f"dispatcher {index}")
        )

    def _recover_dispatcher(self, index: int) -> None:
        super()._recover_dispatcher(index)
        self.chaos_log.append(
            (self.cluster.sim.now, "dispatcher_recover", f"dispatcher {index}")
        )


def resilience_counters(
    injector: "ChaosInjector", metrics: "ClusterMetrics"
) -> dict[str, float]:
    """Condense a finished chaos run into archive-ready counters.

    Recovery time per chaos event = backlog drain time: for an event
    starting at ``t``, the largest ``completion - t`` over completed
    requests that arrived at or before ``t`` but completed after it
    (0 when no request straddles the event).
    """
    cluster = injector.cluster
    faults = injector.faults
    counters: dict[str, float] = {
        "messages_lost": float(faults.total_lost()),
        "messages_duplicated": float(faults.total_duplicated()),
        "messages_partition_dropped": float(faults.total_partition_dropped()),
        "request_timeouts_fired": float(cluster.request_timeouts_fired),
        "server_loss_retries": float(cluster.server_loss_retries),
        "duplicate_deliveries_ignored": float(cluster.duplicate_deliveries_ignored),
        "stale_responses_ignored": float(cluster.stale_responses_ignored),
        "total_retries": float(int(metrics.retries.sum())),
        "requests_lost": float(int(metrics.failed.sum())),
        "n_chaos_events": float(len(injector.events)),
    }
    if cluster.reliability is not None:
        counters.update(cluster.reliability.counters())
    # Admission-control visibility: the rejected_count sum is always
    # reported (rejections were previously invisible in every report);
    # shed/withdrawal/NACK counters join it when overload control is on.
    counters.update(cluster.overload_counters())
    if cluster.dispatchers is not None:
        counters.update(cluster.dispatchers.counters())
    if cluster.autoscaler is not None:
        counters.update(cluster.autoscaler.counters())
    completed = np.isfinite(metrics.response_time) & ~metrics.failed
    arrivals = metrics.arrival_time[completed]
    completions = arrivals + metrics.response_time[completed]
    recoveries = []
    for _, start in injector.events:
        straddling = (arrivals <= start) & (completions > start)
        recoveries.append(
            float((completions[straddling] - start).max()) if straddling.any() else 0.0
        )
    # 0.0 (not NaN) when no events: the golden archives and every
    # result digest recorded so far hold 0.0 there.
    counters["recovery_mean_s"] = float(np.mean(recoveries)) if recoveries else 0.0
    counters["recovery_max_s"] = float(np.max(recoveries)) if recoveries else 0.0
    return counters

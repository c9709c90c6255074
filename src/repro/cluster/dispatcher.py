"""Multi-dispatcher tier: clients route through K dispatcher nodes.

Everything so far lets each client pick servers independently; the
production topology — and the setting of Hellemans & Van Houdt's
dispatcher work (PAPERS.md) — is a small tier of dispatchers fronting
many FCFS servers. This module models that tier as a first-class,
off-by-default subsystem, mirroring the shape of the reliability and
overload layers exactly:

- :class:`DispatcherPolicy` — a frozen, JSON-native value object
  carried by ``SimulationConfig.dispatcher_params`` (cache-key aware);
- :class:`DispatcherTier` / :class:`Dispatcher` — the runtime, installed
  as ``cluster.dispatchers`` by :func:`install` (``None`` when the
  subsystem is off). The tier hears of lifecycle steps as a subscriber of the
  cluster's ``candidates``, ``terminal``, ``reject`` and ``timeout``
  points; :func:`install` rebinds the lifecycle's select step, reselect,
  selector agents and ``selector_for`` to the tier and every server's
  ``on_complete`` to its backhaul.

Topology and lifecycle (DESIGN.md §16):

- Each :class:`Dispatcher` owns a :class:`~repro.cluster.client.
  ClientNode` *agent* whose node id continues after the client ids.
  The agent is the policy-facing identity: per-selector policy state
  (broadcast tables, JIQ idle queues, least-connections counters) lives
  in ``agent.state``, and when the availability subsystem is on each
  dispatcher subscribes its **own** :class:`~repro.cluster.availability.
  ServiceMappingTable` — dispatchers hold independently-stale views,
  optionally lagged by ``view_lag`` seconds.
- A request's selection hop becomes client → dispatcher (a FORWARD
  message over the request latency), then the *dispatcher* runs the
  cluster's load-balancing policy against its own view and dispatches
  to a server; the response returns server → dispatcher → client so
  the dispatcher observes completions (admission signal) and a dead
  dispatcher loses the response (the client's attempt timeout
  recovers, exactly like a lost message).
- Client→dispatcher **assignment**: ``"static"`` pins each client to
  ``client_index mod K``; ``"failover"`` starts from the same primary
  but, after an attempt timeout or an admission NACK, marks that
  (client, dispatcher) pair *suspect* for ``suspect_cooldown`` seconds
  and routes retries to the next non-suspect dispatcher.
- Per-dispatcher **admission** reuses :class:`~repro.cluster.overload.
  OverloadController` verbatim (CoDel-style, keyed on the dispatcher's
  in-flight count, ``workers = n_servers``, ``ADMIT_INTERVAL``,
  ``ADMIT_EWMA_ALPHA``, no jitter, no withdrawal):
  an overloaded dispatcher NACKs the forward and — under failover —
  pushes the client to its secondary.
- Per-dispatcher **breakers** reuse :class:`~repro.cluster.reliability.
  CircuitBreaker` per server: each dispatcher learns independently
  which servers are failing it (timeouts, rejects) and filters its own
  candidate sets, failing open like the reliability engine.

Dispatcher *fault injection* (crash storms) rides the existing
:class:`~repro.cluster.failures.ChaosInjector` machinery — dispatcher
node ids enter the injector's shared ``dead`` set so in-flight messages
are swallowed by the same ``NetworkFaults`` gate that handles server
crashes.

A disabled policy installs nothing: no extra node, message or RNG draw.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.client import ClientNode
from repro.net.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.request import Request
    from repro.cluster.system import ServiceCluster

__all__ = ["DispatcherPolicy", "Dispatcher", "DispatcherTier", "install"]

_ASSIGNMENTS = ("static", "failover")

#: the tier admission controller's CoDel interval and service-time EWMA
#: smoothing (its sojourn target is the policy's ``admit_sojourn_target``)
ADMIT_INTERVAL = 0.05
ADMIT_EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class DispatcherPolicy:
    """Declarative dispatcher-tier knobs (all JSON-native scalars).

    Like :class:`~repro.cluster.overload.OverloadPolicy`, the policy is
    a plain value object so it can live inside a
    :class:`~repro.experiments.config.SimulationConfig`
    (``dispatcher_params``) and participate in the content-addressed
    result cache. The default instance disables the subsystem.

    - ``count`` — number of dispatchers (K); ``None`` disables the
      whole subsystem.
    - ``assignment`` — client→dispatcher mapping: ``"static"`` (pinned
      hash) or ``"failover"`` (hash primary, retries avoid dispatchers
      recently seen timing out or shedding).
    - ``suspect_cooldown`` — how long (seconds) a failover client
      avoids a dispatcher after a timeout/NACK against it.
    - ``view_lag`` — extra constant delay (seconds) on availability
      PUBLISH deliveries into dispatcher views (stale-view fault
      model; 0 = views as fresh as any client's).
    - ``admit_sojourn_target`` — per-dispatcher CoDel-style admission
      over the dispatcher's in-flight count, reusing
      :class:`~repro.cluster.overload.OverloadController` with
      ``workers = n_servers``; ``None`` disables admission.
    - ``breaker_threshold`` / ``breaker_cooldown`` — per-dispatcher
      per-server circuit breakers (each dispatcher's view filters
      independently); ``None`` threshold disables them.
    """

    count: Optional[int] = None
    assignment: str = "static"
    suspect_cooldown: float = 0.5
    view_lag: float = 0.0
    admit_sojourn_target: Optional[float] = None
    breaker_threshold: Optional[int] = None
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1 or None, got {self.count}")
        if self.assignment not in _ASSIGNMENTS:
            raise ValueError(
                f"assignment must be one of {_ASSIGNMENTS}, got {self.assignment!r}"
            )
        if self.suspect_cooldown <= 0:
            raise ValueError(
                f"suspect_cooldown must be > 0, got {self.suspect_cooldown}"
            )
        if self.view_lag < 0:
            raise ValueError(f"view_lag must be >= 0, got {self.view_lag}")
        if self.admit_sojourn_target is not None and self.admit_sojourn_target <= 0:
            raise ValueError(
                "admit_sojourn_target must be > 0 or None, "
                f"got {self.admit_sojourn_target}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1 or None, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be > 0, got {self.breaker_cooldown}"
            )

    @property
    def enabled(self) -> bool:
        """True when the tier should be installed at all."""
        return self.count is not None

    @classmethod
    def field_names(cls) -> frozenset:
        """The set of knob names (used to validate config dicts)."""
        return frozenset(f.name for f in fields(cls))


class Dispatcher:
    """One dispatcher node: its own view, breakers, and admission."""

    __slots__ = (
        "index",
        "agent",
        "alive",
        "inflight",
        "admission",
        "breakers",
        "forwards",
        "sheds",
    )

    def __init__(self, tier: "DispatcherTier", index: int, node_id: int):
        cluster = tier.cluster
        policy = tier.policy
        self.index = index
        #: policy-facing identity: per-selector state (broadcast tables,
        #: JIQ idle queues, ...) lives in ``agent.state``
        self.agent = ClientNode(cluster.sim, node_id)
        self.alive = True
        #: requests forwarded through this dispatcher and not yet
        #: terminally resolved (the admission controller's load index)
        self.inflight = 0
        self.admission = None
        if policy.admit_sojourn_target is not None:
            from repro.cluster.overload import OverloadController, OverloadPolicy

            self.admission = OverloadController(
                OverloadPolicy(
                    sojourn_target=policy.admit_sojourn_target,
                    interval=ADMIT_INTERVAL,
                    ewma_alpha=ADMIT_EWMA_ALPHA,
                ),
                cluster.sim,
                workers=cluster.n_servers,
            )
        #: per-server circuit breakers local to this dispatcher's view
        #: (empty dict when breakers are off)
        self.breakers = {}
        if policy.breaker_threshold is not None:
            from repro.cluster.reliability import CircuitBreaker

            self.breakers = {
                server.node_id: CircuitBreaker(
                    policy.breaker_threshold, policy.breaker_cooldown
                )
                for server in cluster.servers
            }
        self.forwards = 0
        self.sheds = 0

    @property
    def node_id(self) -> int:
        return self.agent.node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Dispatcher #{self.index} node={self.node_id} "
            f"alive={self.alive} inflight={self.inflight}>"
        )


class DispatcherTier:
    """Runtime for one cluster's :class:`DispatcherPolicy`.

    Installed as ``cluster.dispatchers`` by :func:`install` (``None`` when
    the tier is off), which rebinds the cluster's select step to
    :meth:`route`; :meth:`filter_view`, :meth:`on_terminal`,
    :meth:`on_server_reject` and :meth:`on_attempt_timeout` subscribe to
    its lifecycle points; message deliveries land on the ``_deliver_*``
    handlers.
    """

    def __init__(self, cluster: "ServiceCluster", policy: DispatcherPolicy):
        assert policy.count is not None
        self.cluster = cluster
        self.policy = policy
        base = cluster.n_servers + cluster.n_clients
        self.dispatchers = [
            Dispatcher(self, k, base + k) for k in range(policy.count)
        ]
        self._by_node = {d.node_id: d for d in self.dispatchers}
        #: request index -> dispatcher index currently holding the
        #: in-flight accounting (exactly-once acquire/release)
        self._inflight_index: dict[int, int] = {}
        #: (client_node_id, dispatcher_index) -> suspect-until time
        #: (failover assignment only)
        self._suspect: dict[tuple[int, int], float] = {}
        # Counters (surfaced through the chaos_counters channel).
        self.rejects_sent = 0
        self.stale_forwards = 0
        self.stale_rejects = 0
        self.timeouts_charged = 0
        self.failovers = 0
        self.responses_dropped = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _primary_index(self, client_node_id: int) -> int:
        return (client_node_id - self.cluster.n_servers) % len(self.dispatchers)

    def _pick(self, client_node_id: int) -> int:
        primary = self._primary_index(client_node_id)
        if self.policy.assignment != "failover":
            return primary
        now = self.cluster.sim.now
        k = len(self.dispatchers)
        for offset in range(k):
            index = (primary + offset) % k
            if self._suspect.get((client_node_id, index), 0.0) <= now:
                if offset:
                    self.failovers += 1
                return index
        # Every dispatcher is suspect: fail open to the primary rather
        # than stalling (mirrors the breaker fail-open contract).
        return primary

    def _mark_suspect(self, client_node_id: int, index: int) -> None:
        if self.policy.assignment == "failover":
            self._suspect[(client_node_id, index)] = (
                self.cluster.sim.now + self.policy.suspect_cooldown
            )

    def route(self, client: ClientNode, request: "Request") -> None:
        """Forward a (re-)selection to the client's assigned dispatcher.

        The cluster's select step in place of running the policy at the
        client. The attempt timeout armed by ``_safe_select`` covers the
        forward hop, the dispatcher-side selection, and the dispatch —
        a forward swallowed by a dead/partitioned dispatcher recovers
        through it like any other lost message.
        """
        # A retry abandons the previous attempt's in-flight accounting.
        self.release(request)
        index = self._pick(client.node_id)
        dispatcher = self.dispatchers[index]
        request.dispatcher_id = index
        self.cluster.network.send(MessageKind.FORWARD, client.node_id, dispatcher.node_id,
                                  (request, request.retries), self._deliver_forward)

    def _deliver_forward(self, message: Message) -> None:
        request, attempt = message.payload
        if request.done or request.queued_at >= 0 or request.retries != attempt:
            # The request moved on before the forward landed: its
            # timeout fired and a retry already queued somewhere, or
            # chaos duplicated the forward.
            self.stale_forwards += 1
            return
        dispatcher = self._by_node[message.dst]
        if not dispatcher.alive:
            # Crashed after the message cleared the fault gates; the
            # client's attempt timeout recovers.
            return
        if dispatcher.admission is not None and not dispatcher.admission.admit(
            dispatcher.inflight
        ):
            # Tier-level shed: NACK the client immediately (the attempt
            # timeout stays armed — loss recovery for an eaten NACK).
            dispatcher.sheds += 1
            self.rejects_sent += 1
            self._mark_suspect(request.client_id, dispatcher.index)
            self.cluster.network.send(MessageKind.REJECT, dispatcher.node_id, request.client_id,
                                      (request, attempt, dispatcher.index),
                                      self._deliver_tier_reject)
            return
        dispatcher.forwards += 1
        self._acquire(dispatcher, request)
        self.cluster.run_policy(dispatcher.agent, request)

    def reselect_later(self, agent: ClientNode, request: "Request") -> None:
        """The dispatcher's whole view expired (mass failure / fresh
        lagged view): re-select at this dispatcher after a delay."""
        cluster = self.cluster
        cluster.sim.after(
            cluster.reselect_delay,
            self._reselect_at,
            (self._by_node[agent.node_id].index, request),
        )

    def _reselect_at(self, arg: tuple[int, "Request"]) -> None:
        index, request = arg
        if request.done or request.queued_at >= 0:
            return
        if self._inflight_index.get(request.index) != index:
            # The request was re-routed (timeout retry) meanwhile.
            return
        dispatcher = self.dispatchers[index]
        if not dispatcher.alive:
            return
        self.cluster.run_policy(dispatcher.agent, request)

    def _deliver_tier_reject(self, message: Message) -> None:
        request, attempt, index = message.payload
        if request.done or request.queued_at >= 0 or request.retries != attempt:
            self.stale_rejects += 1
            return
        self._mark_suspect(request.client_id, index)
        self.cluster._cancel_attempt_timeout(request)  # noqa: SLF001 - lifecycle hook
        self.cluster._retry(request)  # noqa: SLF001

    # ------------------------------------------------------------------
    # in-flight accounting (exactly-once acquire/release)
    # ------------------------------------------------------------------
    def _acquire(self, dispatcher: Dispatcher, request: "Request") -> None:
        previous = self._inflight_index.pop(request.index, None)
        if previous is not None:
            self.dispatchers[previous].inflight -= 1
        self._inflight_index[request.index] = dispatcher.index
        dispatcher.inflight += 1

    def release(self, request: "Request") -> None:
        """Drop the in-flight accounting for a resolved/abandoned attempt.

        Idempotent; ``request.dispatcher_id`` is left intact so late
        bookkeeping (``selector_for``) still resolves to the dispatcher
        that handled the request.
        """
        index = self._inflight_index.pop(request.index, None)
        if index is not None:
            self.dispatchers[index].inflight -= 1

    def on_terminal(self, request: "Request", winner: Optional["Request"]) -> None:
        """The request is terminal: :meth:`release` its accounting."""
        self.release(request)

    # ------------------------------------------------------------------
    # response backhaul
    # ------------------------------------------------------------------
    def backhaul(self, server, request: "Request") -> None:
        """Every server's ``on_complete`` under the tier: a tier-routed
        response returns through its dispatcher so it observes the
        completion (admission/breaker signals); a dead dispatcher loses
        the response and the client's attempt timeout recovers. Hedge
        clones (``dispatcher_id == -1``) keep the direct server→client
        path."""
        index = request.dispatcher_id
        if index < 0:
            self.cluster._on_server_complete(server, request)  # noqa: SLF001
            return
        self.cluster.network.send(MessageKind.RESPONSE, server.node_id,
                                  self.dispatchers[index].node_id, request, self._deliver_backhaul)

    def _deliver_backhaul(self, message: Message) -> None:
        request: "Request" = message.payload
        dispatcher = self._by_node[message.dst]
        if not dispatcher.alive:
            # Response lost with the dispatcher; the client's attempt
            # timeout recovers (belt-and-braces — with a chaos injector
            # installed the dead set already swallowed the message).
            self.responses_dropped += 1
            return
        if dispatcher.admission is not None:
            dispatcher.admission.observe_completion(
                request, max(0, dispatcher.inflight - 1)
            )
        if dispatcher.breakers and request.server_id >= 0:
            dispatcher.breakers[request.server_id].record_success(self.cluster.sim.now)
        self.cluster.network.send(MessageKind.RESPONSE, dispatcher.node_id, request.client_id,
                                  request, self.cluster._deliver_response)  # noqa: SLF001

    # ------------------------------------------------------------------
    # failure signals
    # ------------------------------------------------------------------
    def on_attempt_timeout(self, request: "Request") -> None:
        """An attempt timed out: suspect the handling dispatcher and
        charge its breaker for the last server it reached (if any)."""
        index = request.dispatcher_id
        if index < 0:
            return
        self.timeouts_charged += 1
        self._mark_suspect(request.client_id, index)
        dispatcher = self.dispatchers[index]
        if dispatcher.breakers and request.server_id >= 0:
            dispatcher.breakers[request.server_id].record_failure(self.cluster.sim.now)

    def on_server_reject(self, request: "Request", server_id: int) -> None:
        """A server rejected the request: the handling dispatcher's
        breaker for that server absorbs the signal."""
        index = request.dispatcher_id
        if index < 0:
            return
        dispatcher = self.dispatchers[index]
        if dispatcher.breakers:
            dispatcher.breakers[server_id].record_failure(self.cluster.sim.now)

    def filter_view(self, selector: ClientNode, members: Sequence[int]) -> Sequence[int]:
        """Apply the selecting dispatcher's per-server breakers to a
        candidate set (identity for non-dispatcher selectors). Fails
        open like :meth:`ReliabilityEngine.filter_candidates`."""
        dispatcher = self._by_node.get(selector.node_id)
        if dispatcher is None or not dispatcher.breakers:
            return members
        now = self.cluster.sim.now
        allowed = [s for s in members if dispatcher.breakers[s].allows(now)]
        return allowed if allowed else members

    def agents(self) -> list[ClientNode]:
        """The selector agents: one per dispatcher."""
        return [d.agent for d in self.dispatchers]

    def selector_for(self, request: "Request") -> ClientNode:
        """The dispatcher agent that handled ``request``, or its client
        when it never routed through the tier."""
        index = request.dispatcher_id
        if index < 0:
            return self.cluster.client_for(request)
        return self.dispatchers[index].agent

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Archive-ready tier tallies (chaos_counters channel)."""
        sheds = 0
        forwards = 0
        breaker_opens = 0
        for dispatcher in self.dispatchers:
            forwards += dispatcher.forwards
            sheds += dispatcher.sheds
            breaker_opens += sum(b.opens for b in dispatcher.breakers.values())
        return {
            "dispatcher_forwards": float(forwards),
            "dispatcher_sheds": float(sheds),
            "dispatcher_rejects_sent": float(self.rejects_sent),
            "dispatcher_stale_forwards": float(self.stale_forwards),
            "dispatcher_stale_rejects": float(self.stale_rejects),
            "dispatcher_timeouts_charged": float(self.timeouts_charged),
            "dispatcher_failovers": float(self.failovers),
            "dispatcher_responses_dropped": float(self.responses_dropped),
            "dispatcher_breaker_opens": float(breaker_opens),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DispatcherTier k={len(self.dispatchers)} "
            f"assignment={self.policy.assignment} "
            f"inflight={sum(d.inflight for d in self.dispatchers)}>"
        )


def install(cluster: "ServiceCluster", **knobs) -> None:
    """Install a :class:`DispatcherTier` of ``knobs`` as ``cluster.dispatchers``
    (a disabled policy installs nothing): selection, reselection and
    responses go through the tier from then on."""
    policy = DispatcherPolicy(**knobs)
    if not policy.enabled:
        return
    tier = DispatcherTier(cluster, policy)
    cluster.rebind(_select=tier.route, reselect_later=tier.reselect_later,
                   selector_for=tier.selector_for, _selector_agents=tier.agents)
    for server in cluster.servers:
        server.on_complete = tier.backhaul
    cluster.install("dispatchers", tier)

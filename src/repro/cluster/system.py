"""The service cluster: request lifecycle + policy context.

:class:`ServiceCluster` wires the simulator, the network, server and
client nodes, an optional availability subsystem, an optional
prototype-overhead model, and one load-balancing policy. It drives the
paper's request lifecycle:

1. a request *arrives* at a client (trace- or process-generated);
2. the policy *selects* a server — instantly (random/broadcast/ideal)
   or after polling/manager round trips (``poll_time`` is the
   select-to-dispatch latency);
3. the request travels to the server (half of the measured 516 µs
   request+response latency), queues FIFO, is serviced non-preemptively;
4. the response travels back; response time = receipt − arrival.

The cluster object is also the *context* passed to policies
(:meth:`available_servers`, :meth:`dispatch`, :meth:`poll_server`,
:attr:`servers`, :meth:`rng`, ...).

The client side of that lifecycle lives once, in
:class:`RequestLifecycle`, written against the
:class:`~repro.sim.clock.Clock` protocol. :class:`ServiceCluster` (the
simulated ``net/`` transport) and :class:`repro.live.client.LiveCluster`
(real UDP datagrams) are its two transports and supply only the hooks
the base class names.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.cluster.availability import (
    AvailabilityChannel,
    ServiceMappingTable,
    ServicePublisher,
)
from repro.cluster.client import ClientNode
from repro.cluster.request import Request
from repro.cluster.server import ServerNode
from repro.core.base import NoCandidatesError
from repro.net.latency import ConstantLatency, PAPER_NET, PaperNetworkConstants
from repro.net.message import Message, MessageKind
from repro.net.transport import Network
from repro.sim.calendar import make_simulator
from repro.sim.engine import SimulationError
from repro.sim.rng import IndexStream, RngHub

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.autoscaler import AutoscalerPolicy
    from repro.cluster.dispatcher import DispatcherPolicy
    from repro.cluster.overload import OverloadPolicy
    from repro.cluster.reliability import ReliabilityPolicy
    from repro.core.base import LoadBalancer
    from repro.sim.clock import ClockHandle

__all__ = ["ServiceCluster", "RequestLifecycle", "ClusterMetrics", "DEFAULT_SERVICE",
           "LIFECYCLE_POINTS"]

#: service name used when the availability subsystem is enabled with the
#: default single fully-replicated service (simulated and live alike)
DEFAULT_SERVICE = "service"

#: lifecycle point -> its subscribers in call order: ``(slot, hook)``, the
#: method ``hook`` of the subsystem in slot ``slot`` (an ``attr`` of
#: ``experiments.config.SUBSYSTEMS``; ``"lifecycle"`` is the lifecycle
#: itself). The points and their arguments: ``arrival(request)``,
#: ``dispatch(client, request, server_id)`` once a primary attempt is sent,
#: ``terminal(request, winner)`` with ``winner`` the copy whose response won
#: or ``None`` on failure, ``reject(request, server_id)``,
#: ``timeout(request)``, ``server_loss(request)`` and ``run_end()``.
LIFECYCLE_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "arrival": (("oracle", "on_arrival"),),
    "dispatch": (("oracle", "on_dispatch"), ("reliability", "on_dispatch")),
    "terminal": (("telemetry", "on_terminal"), ("oracle", "on_terminal"),
                 ("dispatchers", "on_terminal"), ("autoscaler", "on_terminal"),
                 ("lifecycle", "_notify_policy"), ("reliability", "on_terminal")),
    "reject": (("dispatchers", "on_server_reject"), ("reliability", "on_reject")),
    "timeout": (("dispatchers", "on_attempt_timeout"), ("reliability", "on_attempt_failure")),
    "server_loss": (("reliability", "on_attempt_failure"),),
    "run_end": (("oracle", "on_run_end"),),
}


class _RunComplete(Exception):
    """Internal: unwinds the event loop the moment the last request
    finishes, so self-perpetuating control loops (broadcast
    announcements, availability refreshes) don't keep executing."""


class ClusterMetrics:
    """Per-request measurement arrays (NumPy, preallocated)."""

    __slots__ = (
        "n",
        "arrival_time",
        "response_time",
        "poll_time",
        "queue_wait",
        "server_id",
        "retries",
        "failed",
    )

    def __init__(self, n: int):
        self.n = n
        self.arrival_time = np.full(n, np.nan)
        self.response_time = np.full(n, np.nan)
        self.poll_time = np.full(n, np.nan)
        self.queue_wait = np.full(n, np.nan)
        self.server_id = np.full(n, -1, dtype=np.int32)
        self.retries = np.zeros(n, dtype=np.int32)
        self.failed = np.zeros(n, dtype=bool)

    def record(self, request: Request) -> None:
        i = request.index
        self.arrival_time[i] = request.arrival_time
        self.response_time[i] = request.response_time
        self.poll_time[i] = request.poll_time
        self.queue_wait[i] = request.queue_wait
        self.server_id[i] = request.server_id
        self.retries[i] = request.retries
        self.failed[i] = request.failed

    def measurement_slice(self, warmup_fraction: float = 0.1) -> np.ndarray:
        """Boolean mask of completed, post-warmup requests."""
        if not 0 <= warmup_fraction < 1:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        mask = np.isfinite(self.response_time) & ~self.failed
        mask[: int(self.n * warmup_fraction)] = False
        return mask

    def summary(self, warmup_fraction: float = 0.1) -> dict[str, float]:
        """Headline statistics over the measurement window (seconds)."""
        mask = self.measurement_slice(warmup_fraction)
        responses = self.response_time[mask]
        polls = self.poll_time[mask]
        p50, p90, p95, p99 = (
            np.percentile(responses, [50, 90, 95, 99]).tolist() if responses.size else [math.nan] * 4
        )
        return {
            "n_measured": int(mask.sum()),
            "n_failed": int(self.failed.sum()),
            "mean_response_time": float(responses.mean()) if responses.size else math.nan,
            "p50_response_time": p50,
            "p90_response_time": p90,
            "p95_response_time": p95,
            "p99_response_time": p99,
            "mean_poll_time": float(polls.mean()) if polls.size else math.nan,
        }

    def server_counts(self, n_servers: int, warmup_fraction: float = 0.1) -> np.ndarray:
        """Requests completed per server over the measurement window."""
        mask = self.measurement_slice(warmup_fraction)
        return np.bincount(self.server_id[mask], minlength=n_servers)


class RequestLifecycle:
    """The client-side request lifecycle and policy context, once.

    Arrival → select → dispatch → response / reject / timeout → retry →
    terminal record, with every stale-delivery guard, written against
    the :class:`~repro.sim.clock.Clock` protocol (``self.sim``). An
    optional subsystem hears of a step through the step's lifecycle
    point (:data:`LIFECYCLE_POINTS`): a tuple of bound hooks, ``_at_<point>``,
    empty when nobody listens. A transport subclass builds the nodes
    (``servers``, ``clients``, ``network``, ``mapping_tables``, the
    ``dispatchers`` / ``autoscaler`` / ``overload`` slots), calls
    :meth:`_init_lifecycle` last in its constructor, unpacks inbound
    messages before handing them to :meth:`_on_response` /
    :meth:`_on_reject`, and supplies:

    - :meth:`poll_server` — how a POLL leaves and its reply returns;
    - :meth:`_send_request` — how a REQUEST leaves;
    - :meth:`_all_resolved` — how "every request is terminal" ends the run;
    - ``_t0`` — the clock reading arrival offsets are measured from.
    """

    #: arrival origin: 0 on a simulated clock; a wall-clock transport
    #: sets it to the reading at run start
    _t0 = 0.0

    def _init_lifecycle(
        self,
        policy: "LoadBalancer",
        request_timeout: Optional[float],
        max_retries: int,
        reliability: Optional["ReliabilityPolicy"],
    ) -> None:
        """Lifecycle configuration, workload slots, resilience counters,
        the None-when-off subsystem slots and the lifecycle points; binds
        ``policy`` (it reads the finished context)."""
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        #: fallback for the derived re-select delay until load_workload
        #: computes one from the workload's mean service time
        self._derived_reselect_delay = 0.1

        # Workload slots.
        self.n_requests = 0
        self._service_times: Optional[np.ndarray] = None
        self._arrival_times: Optional[np.ndarray] = None
        self.metrics: Optional[ClusterMetrics] = None
        self._completed = 0
        self._timeout_handles: dict[int, ClockHandle] = {}

        # Resilience accounting (chaos campaigns read these).
        #: client-side request timeouts that actually triggered a retry
        self.request_timeouts_fired = 0
        #: retries triggered by a server crash/drain (distinct from
        #: timeout-driven retries, so chaos reports can attribute them)
        self.server_loss_retries = 0
        #: duplicated/stale REQUEST deliveries discarded (a copy of the
        #: request was already queued somewhere, or it already finished)
        self.duplicate_deliveries_ignored = 0
        #: RESPONSE deliveries discarded because the request had already
        #: completed or terminally failed (duplication / timeout races)
        self.stale_responses_ignored = 0
        #: fast-reject NACKs sent by overloaded servers
        self.rejects_sent = 0
        #: REJECT deliveries discarded because the request had already
        #: moved on (retry raced the NACK, or duplication)
        self.stale_rejects_ignored = 0
        #: request currently inside policy.select (candidate-set
        #: filtering excludes the server that just rejected it)
        self._selecting_request: Optional[Request] = None
        # Chaos, telemetry and the oracle are built after the cluster and
        # arrive through install(); the reliability engine is built only
        # when a mechanism is enabled, so naive runs take identical paths.
        self.chaos = self.telemetry = self.oracle = self.reliability = None
        if reliability is not None and reliability.enabled:
            from repro.cluster.reliability import ReliabilityEngine

            self.reliability = ReliabilityEngine(self, reliability)
        self._wire_points()

        self.policy = policy
        policy.bind(self)

    def install(self, slot: str, subsystem) -> None:
        """Put ``subsystem`` (or ``None``) in the subsystem slot ``slot``
        and rewire every lifecycle point: the one way a subsystem built
        after the cluster gets in."""
        from repro.experiments.config import SUBSYSTEMS

        slots = [row.attr for row in SUBSYSTEMS.values()]
        if slot not in slots:
            raise ValueError(f"unknown subsystem slot {slot!r}; expected one of {slots}")
        setattr(self, slot, subsystem)
        self._wire_points()

    def _wire_points(self) -> None:
        """Bind each lifecycle point to the hooks of its installed
        subscribers, in :data:`LIFECYCLE_POINTS` order."""
        for point, subscribers in LIFECYCLE_POINTS.items():
            owners = ((self if slot == "lifecycle" else getattr(self, slot), hook)
                      for slot, hook in subscribers)
            setattr(self, f"_at_{point}",
                    tuple(getattr(owner, hook) for owner, hook in owners if owner is not None))

    def poll_server(
        self,
        client: ClientNode,
        server_id: int,
        on_reply: Callable[[int, int, float], None],
    ) -> None:
        """Transport hook: send a load inquiry; the transport calls
        ``on_reply(server_id, queue_length, observed_at)``."""
        raise NotImplementedError

    def _send_request(self, client: ClientNode, request: Request, server_id: int) -> None:
        """Transport hook: put one REQUEST on the wire."""
        raise NotImplementedError

    def _all_resolved(self) -> None:
        """Transport hook: the last request just became terminal."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # policy context API
    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        """Named deterministic substream (see :class:`RngHub`)."""
        return self.rng_hub.stream(name)

    def index_stream(self, name: str) -> IndexStream:
        """Named private substream of uniform indices (picks, tie-breaks)."""
        return self.rng_hub.index_stream(name)

    def available_servers(self, client: ClientNode) -> list[int]:
        """Candidate server ids for this client's next access.

        Soft-state membership first (when the availability subsystem is
        on), then rejection exclusion, then circuit-breaker filtering
        (when the reliability layer has breakers): a breaker reacts to
        consecutive failures within milliseconds while soft-state
        expiry needs a full TTL.

        Rejection exclusion: while re-selecting a request that was just
        rejected, the rejecting server is dropped from the candidate
        set (when alternatives exist) — a saturated server must not be
        re-picked for the immediate retry it just bounced.
        """
        if not self.availability_enabled:
            members = self._static_members
        else:
            members = self.mapping_tables[client.node_id].available(DEFAULT_SERVICE, 0)
        selecting = self._selecting_request
        if selecting is not None and selecting.last_rejected_by >= 0:
            filtered = [s for s in members if s != selecting.last_rejected_by]
            if filtered:
                members = filtered
        if self.dispatchers is not None:
            members = self.dispatchers.filter_view(client.node_id, members)
        if self.reliability is not None:
            return list(self.reliability.filter_candidates(members))
        return members

    def client_for(self, request: Request) -> ClientNode:
        """The client node that originated ``request`` (client node ids
        are consecutive, continuing after the server ids)."""
        return self.clients[(request.client_id - self.clients[0].node_id) % self.n_clients]

    @property
    def selector_agents(self) -> list[ClientNode]:
        """The nodes that run ``policy.select`` and hold per-selector
        policy state: the dispatcher agents when the tier is on, the
        clients themselves otherwise. Policies that keep local state
        (broadcast tables, JIQ idle queues, least-connections counters)
        set up and address state through this list, never
        ``self.clients`` directly."""
        if self.dispatchers is not None:
            return [d.agent for d in self.dispatchers.dispatchers]
        return self.clients

    def selector_for(self, request: Request) -> ClientNode:
        """The selector node whose policy state should absorb a
        lifecycle notification for ``request``: the handling dispatcher
        agent when the tier routed it, else the originating client."""
        if self.dispatchers is not None:
            agent = self.dispatchers.selector_agent(request)
            if agent is not None:
                return agent
        return self.client_for(request)

    @property
    def reselect_delay(self) -> float:
        """Delay before re-selecting after an empty candidate set: the
        flat ``request_timeout`` when one is set, else 5x the workload's
        mean service time (derived in :meth:`load_workload`)."""
        if self.request_timeout is not None:
            return self.request_timeout
        return self._derived_reselect_delay

    def dispatch(self, client: ClientNode, request: Request, server_id: int) -> None:
        """Send ``request`` to ``server_id`` (policies call this once
        they have decided)."""
        if request.done:
            # A stale poll round decided after the request already
            # finished through another path (timeout retry + chaos).
            return
        # The rejection exclusion only covers the selection that just
        # committed; later retries see the full candidate set again.
        request.last_rejected_by = -1
        request.dispatch_time = self.sim.now
        self.policy.notify_dispatch(client, request, server_id)
        self._send_request(client, request, server_id)
        # Replace (never stack) the attempt timeout: the deadline is
        # measured from this dispatch, superseding any select-phase
        # timeout armed by _safe_select.
        self._arm_attempt_timeout(request)
        for hook in self._at_dispatch:
            hook(client, request, server_id)

    def _arm_attempt_timeout(self, request: Request) -> None:
        """(Re-)arm the per-attempt timeout: the flat ``request_timeout``
        when the reliability layer is off, the deadline-budget share
        otherwise. No-op when neither is configured."""
        timeout = (
            self.request_timeout
            if self.reliability is None
            else self.reliability.attempt_timeout(request)
        )
        if timeout is None:
            return
        self._cancel_attempt_timeout(request)
        self._timeout_handles[request.index] = self.sim.after(
            timeout, self._on_request_timeout, request
        )

    def _cancel_attempt_timeout(self, request: Request) -> None:
        """Disarm ``request``'s pending attempt timeout, if any."""
        handle = self._timeout_handles.pop(request.index, None)
        if handle is not None:
            self.sim.cancel(handle)

    # ------------------------------------------------------------------
    # lifecycle internals
    # ------------------------------------------------------------------
    def load_workload(self, interarrival: np.ndarray, service: np.ndarray) -> None:
        """Install the request stream (aligned gap/service arrays)."""
        gaps = np.ascontiguousarray(interarrival, dtype=np.float64)
        service_times = np.ascontiguousarray(service, dtype=np.float64)
        if gaps.shape != service_times.shape or gaps.ndim != 1 or gaps.size == 0:
            raise ValueError("interarrival and service must be equal-length non-empty 1-D")
        self.n_requests = int(gaps.shape[0])
        self._arrival_times = np.cumsum(gaps)
        extra = 0.0 if self.overhead is None else self.overhead.request_cpu_overhead
        self._service_times = service_times + extra
        # NoCandidates re-select delay, used only when no
        # request_timeout is configured: a few mean
        # service times, not a flat 100 ms (which is ~20x the mean
        # service time of a fine-grain request).
        mean_service = float(self._service_times.mean())
        if mean_service > 0.0:
            self._derived_reselect_delay = 5.0 * mean_service
        self.metrics = ClusterMetrics(self.n_requests)
        self._completed = 0

    def _on_arrival(self, index: int) -> None:
        assert self._arrival_times is not None and self._service_times is not None
        if index + 1 < self.n_requests:
            self.sim.at(
                self._t0 + float(self._arrival_times[index + 1]), self._on_arrival, index + 1
            )
        client = self.clients[index % self.n_clients]
        request = Request(
            index=index,
            client_id=client.node_id,
            service_time=float(self._service_times[index]),
            arrival_time=self.sim.now,
        )
        for hook in self._at_arrival:
            hook(request)
        self._safe_select(client, request)

    def _safe_select(self, client: ClientNode, request: Request) -> None:
        """Run the policy; an empty candidate set becomes a delayed retry
        (e.g. every server's soft state expired after a mass failure).

        When ``request_timeout`` is set it covers the *whole* attempt,
        select phase included: a poll round whose replies are all lost
        to faults would otherwise stall the request forever. The handle
        armed here is superseded by :meth:`dispatch` (same deadline
        semantics as before for requests that do get dispatched).
        """
        self._arm_attempt_timeout(request)
        if self.dispatchers is not None:
            # Dispatcher tier: the selection happens at the assigned
            # dispatcher, one FORWARD hop away; the timeout armed above
            # covers the hop + remote selection + dispatch.
            self.dispatchers.route(client, request)
            return
        self._selecting_request = request
        try:
            self.policy.select(client, request)
        except NoCandidatesError:
            self.reselect_later(client, request)
        finally:
            self._selecting_request = None

    def reselect_later(self, selector: ClientNode, request: Request) -> None:
        """Answer an empty candidate set at ``selector``: select again
        after :attr:`reselect_delay`, at the dispatcher when the tier is
        on. A policy that decides after a network hop (``manager``) calls
        this where a synchronous ``select`` raises ``NoCandidatesError``,
        so both take the same path."""
        if self.dispatchers is not None:
            self.dispatchers.reselect_later(selector, request)
            return
        self._cancel_attempt_timeout(request)
        self.sim.after(self.reselect_delay, self._retry, request)

    def _on_response(self, winner: Request) -> None:
        """A RESPONSE for ``winner`` reached the client (the transport
        has already unpacked it): record the outcome exactly once."""
        # Hedge copies resolve to their primary: the outcome is recorded
        # exactly once against the canonical object, whichever copy's
        # response arrived first.
        request = winner if winner.hedge is None else winner.hedge
        if winner.done or request.done:
            # Duplicated RESPONSE, or a late response for a request that
            # already completed/failed via a retry path (possibly via a
            # sibling hedge copy): never record a second outcome.
            self.stale_responses_ignored += 1
            return
        winner.done = True
        request.done = True
        self._cancel_attempt_timeout(request)
        winner.response_time = self.sim.now - winner.arrival_time
        if winner is not request:
            # Fold the winning copy's outcome into the primary record.
            request.response_time = winner.response_time
            request.enqueue_time = winner.enqueue_time
            request.start_time = winner.start_time
            request.completion_time = winner.completion_time
            request.server_id = winner.server_id
        self._finish(request, winner)

    def _finish(self, request: Request, winner: Optional[Request]) -> None:
        """The one terminal path: record ``request``'s outcome, fire
        ``terminal`` (``winner`` is the copy whose response won, ``None``
        for a terminal failure), count it, end the run after the last."""
        assert self.metrics is not None
        self.metrics.record(request)
        for hook in self._at_terminal:
            hook(request, winner)
        self._completed += 1
        if self._completed >= self.n_requests:
            self._all_resolved()

    def _notify_policy(self, request: Request, winner: Optional[Request]) -> None:
        """The policy's ``terminal`` subscriber: per-selector state (least-
        connections charges, manager counts) is released at the selector
        that took it, for a failed request too."""
        self.policy.notify_complete(self.selector_for(request), request)

    def _on_reject(self, request: Request, attempt: int, server_id: int) -> None:
        """``server_id`` refused attempt number ``attempt`` — a fast-reject
        NACK reached the client, or, without one, the server refused it
        on delivery: retry elsewhere.

        Stale guards mirror ``_on_response``: the request may have
        moved on before the NACK landed — its attempt timeout fired and
        the retry already queued somewhere (``queued_at``), a later
        attempt is underway (``retries`` mismatch), it finished through
        a sibling copy (``done``) — or the NACK was duplicated.
        """
        if request.done or request.queued_at >= 0 or request.retries != attempt:
            self.stale_rejects_ignored += 1
            return
        self._cancel_attempt_timeout(request)
        for hook in self._at_reject:
            hook(request, server_id)
        self._retry(request)

    def _on_request_timeout(self, request: Request) -> None:
        self._timeout_handles.pop(request.index, None)
        if request.done:
            return
        self.request_timeouts_fired += 1
        for hook in self._at_timeout:
            hook(request)
        self._retry(request)

    def _retry(self, request: Request) -> None:
        if request.done:
            return
        if request.hedge is not None:
            # Admission-control rejection of a hedge copy: drop the
            # copy, never spawn a parallel retry lifecycle for it.
            self.reliability.on_clone_lost(request)
            return
        request.retries += 1
        client = self.client_for(request)
        if request.retries > self.max_retries or (
            self.reliability is not None
            and self.reliability.should_fail_fast(request)
        ):
            request.done = True
            request.failed = True
            request.response_time = math.nan
            self._finish(request, None)
            return
        if self.reliability is not None:
            self.reliability.on_retry(request)
            delay = self.reliability.backoff_delay(request)
            if delay > 0.0:
                self.sim.after(delay, self._reselect, request)
                return
        self._safe_select(client, request)

    def _reselect(self, request: Request) -> None:
        """Run the deferred (post-backoff) re-selection for a retry."""
        if request.done:
            return
        self._safe_select(self.client_for(request), request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} servers={self.n_servers} clients={self.n_clients} "
            f"policy={self.policy.describe()} completed={self._completed}/{self.n_requests}>"
        )


class ServiceCluster(RequestLifecycle):
    """A simulated cluster running one policy over one workload: the
    :class:`RequestLifecycle` over the discrete-event ``net/`` transport.

    Parameters
    ----------
    n_servers, n_clients:
        Pool sizes; the paper's experiments use 16 servers and up to 6
        client nodes.
    policy:
        A :class:`repro.core.base.LoadBalancer`; bound to this cluster.
    seed:
        Experiment seed; all randomness derives from it via named
        substreams.
    constants:
        Measured network constants (defaults to the paper's).
    overhead:
        Optional prototype-fidelity overhead model
        (:class:`repro.prototype.PrototypeOverheadModel`); ``None``
        selects the paper's pure simulation model (§2).
    workers:
        Service units per server (1 = the paper's model).
    server_speeds:
        Optional per-server speed factors (heterogeneity ablation).
    record_server_queues:
        Keep every server's queue-length trajectory (for occupancy).
    availability / availability_refresh / availability_ttl:
        When True, run the publish/subscribe availability subsystem and
        derive candidate sets from soft state (required for failure
        experiments); servers publish every ``availability_refresh``
        seconds on average and entries expire after ``availability_ttl``.
        When False (default), membership is static.
    server_max_queue:
        Static admission bound per server (``None``: unbounded).
    request_timeout / max_retries:
        Client-side loss recovery (used with failures). After a
        ``NoCandidatesError`` (every server's soft state expired) the
        client waits ``request_timeout`` before re-selecting, or 5× the
        workload's mean service time when no timeout is set.
    reliability:
        Optional :class:`repro.cluster.reliability.ReliabilityPolicy`
        — deadline budgets, backoff, retry budgets, hedging, breakers.
        ``None`` (or an all-default policy) keeps the naive lifecycle
        bit-identical to a cluster built without the parameter.
    overload:
        Optional :class:`repro.cluster.overload.OverloadPolicy` —
        CoDel-style adaptive admission, fast-reject NACKs, and
        load-aware availability withdrawal, per server. ``None`` (or a
        disabled policy) keeps every path bit-identical to a cluster
        built without the parameter (DESIGN.md §12).
    dispatcher:
        Optional :class:`repro.cluster.dispatcher.DispatcherPolicy` —
        routes selections through K dispatcher nodes, each with its own
        soft-state view, admission, and breakers (DESIGN.md §16).
        ``None`` (or a disabled policy) keeps every path bit-identical
        to a cluster built without the parameter.
    autoscaler:
        Optional :class:`repro.cluster.autoscaler.AutoscalerPolicy` —
        closed-loop scaling of the publishing server pool from
        goodput/shed/p95 window signals; requires ``availability=True``.
        ``None`` (or a disabled policy) changes nothing.
    engine:
        Event-queue implementation ("heap" or "calendar"); both give
        bit-identical results (see :mod:`repro.sim.calendar`).
    """

    def __init__(
        self,
        n_servers: int,
        policy: "LoadBalancer",
        seed: int = 0,
        n_clients: int = 6,
        constants: PaperNetworkConstants = PAPER_NET,
        overhead=None,
        workers: int = 1,
        server_speeds: Optional[list[float]] = None,
        record_server_queues: bool = False,
        availability: bool = False,
        availability_refresh: float = 1.0,
        availability_ttl: float = 3.0,
        request_timeout: Optional[float] = None,
        max_retries: int = 5,
        server_max_queue: Optional[int] = None,
        reliability: Optional["ReliabilityPolicy"] = None,
        overload: Optional["OverloadPolicy"] = None,
        dispatcher: Optional["DispatcherPolicy"] = None,
        autoscaler: Optional["AutoscalerPolicy"] = None,
        engine: str = "heap",
    ):
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        if server_speeds is not None and len(server_speeds) != n_servers:
            raise ValueError("server_speeds length must equal n_servers")
        self.sim = make_simulator(engine)
        self.rng_hub = RngHub(seed)
        self.constants = constants
        self.overhead = overhead
        self.n_servers = n_servers
        self.n_clients = n_clients

        self.network = Network(
            self.sim, self.rng_hub.stream("net.latency"),
            ConstantLatency(constants.poll_one_way),
        )
        one_way = ConstantLatency(constants.request_one_way)
        poll_way = ConstantLatency(constants.poll_one_way)
        manager_way = ConstantLatency(constants.manager_one_way)
        self.network.set_latency(MessageKind.REQUEST, one_way)
        self.network.set_latency(MessageKind.RESPONSE, one_way)
        self.network.set_latency(MessageKind.REJECT, one_way)
        self.network.set_latency(MessageKind.FORWARD, one_way)
        self.network.set_latency(MessageKind.POLL, poll_way)
        self.network.set_latency(MessageKind.POLL_REPLY, poll_way)
        self.network.set_latency(MessageKind.BROADCAST, poll_way)
        self.network.set_latency(MessageKind.PUBLISH, poll_way)
        self.network.set_latency(MessageKind.MANAGER_QUERY, manager_way)
        self.network.set_latency(MessageKind.MANAGER_REPLY, manager_way)
        self.network.set_latency(MessageKind.MANAGER_NOTIFY, manager_way)

        self.servers = [
            ServerNode(
                self.sim,
                node_id=i,
                workers=workers,
                speed=1.0 if server_speeds is None else server_speeds[i],
                record_queue=record_server_queues,
                max_queue=server_max_queue,
            )
            for i in range(n_servers)
        ]
        for server in self.servers:
            server.on_complete = self._on_server_complete
        # Client node ids continue after server ids.
        self.clients = [ClientNode(self.sim, n_servers + j) for j in range(n_clients)]
        self._static_members = list(range(n_servers))

        # Dispatcher tier (optional): K dispatcher agents whose node ids
        # continue after the client ids; clients forward selections to
        # them instead of running the policy locally (DESIGN.md §16).
        # Built before the availability block so dispatcher views can
        # subscribe alongside client tables.
        #: the active :class:`~repro.cluster.dispatcher.DispatcherTier`
        #: (None when the tier is off)
        self.dispatchers = None
        if dispatcher is not None and dispatcher.enabled:
            from repro.cluster.dispatcher import DispatcherTier

            self.dispatchers = DispatcherTier(self, dispatcher)

        # Closed-loop autoscaler (optional): scales the *publishing*
        # server pool through the soft-state machinery, so it requires
        # the availability subsystem. Built before the availability
        # block so initial table priming and publisher starts can be
        # gated on the initial active set.
        #: the active :class:`~repro.cluster.autoscaler.Autoscaler`
        #: (None when autoscaling is off)
        self.autoscaler = None
        if autoscaler is not None and autoscaler.enabled:
            from repro.cluster.autoscaler import Autoscaler

            if not availability:
                raise ValueError(
                    "autoscaler requires availability=True (scale-up/-down "
                    "actuates through soft-state publish/withdrawal)"
                )
            self.autoscaler = Autoscaler(self, autoscaler)

        # Availability subsystem (optional).
        self.availability_enabled = availability
        self.publishers: dict[int, ServicePublisher] = {}
        self.mapping_tables: dict[int, ServiceMappingTable] = {}
        if availability:
            channel = AvailabilityChannel(self.network)
            self.availability_channel = channel
            scaler = self.autoscaler
            # Subscribe selector views (clients, plus dispatcher agents
            # when the tier is on) before the first publish round so no
            # announcement is lost to construction ordering.
            selector_nodes = list(self.clients)
            if self.dispatchers is not None:
                selector_nodes += [d.agent for d in self.dispatchers.dispatchers]
            view_lag = 0.0 if dispatcher is None else dispatcher.view_lag
            for node in selector_nodes:
                table = ServiceMappingTable(self.sim, ttl=availability_ttl)
                is_dispatcher_view = node.node_id >= n_servers + n_clients
                if is_dispatcher_view and view_lag > 0.0:
                    # Stale-view fault model: the dispatcher's view sees
                    # every PUBLISH a constant ``view_lag`` late.
                    channel.subscribe(
                        node.node_id,
                        lambda message, _table=table: self.sim.after(
                            view_lag, _table._on_publish, message  # noqa: SLF001
                        ),
                    )
                else:
                    table.subscribe(channel, node.node_id)
                # Prime the table so the first arrivals (before the first
                # publish round lands) see the initially-active membership.
                for server in self.servers:
                    if scaler is not None and not scaler.is_active(server.node_id):
                        continue
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
                self.mapping_tables[node.node_id] = table
            for server in self.servers:
                publisher = ServicePublisher(
                    self.sim,
                    channel,
                    server.node_id,
                    entries=[(DEFAULT_SERVICE, 0)],
                    mean_interval=availability_refresh,
                    rng=self.rng_hub.stream(f"availability.publish.{server.node_id}"),
                )
                self.publishers[server.node_id] = publisher
                # Parked (not-yet-provisioned) servers stay silent until
                # the autoscaler activates them.
                if scaler is None or scaler.is_active(server.node_id):
                    publisher.start()
            if scaler is not None:
                scaler.install()

        # Overload-control subsystem (optional): one controller per
        # server, consulted by ServerNode.enqueue after the static
        # max_queue bound. Installed only when a mechanism is enabled so
        # default runs take identical code paths (enqueue asks a server's
        # controller only when it has one).
        #: the active :class:`~repro.cluster.overload.OverloadPolicy`
        #: (None when overload control is off)
        self.overload = None
        if overload is not None and overload.enabled:
            from repro.cluster.overload import OverloadController

            self.overload = overload
            for server in self.servers:
                rng = (
                    self.rng_hub.stream(f"overload.shed.{server.node_id}")
                    if overload.shed_jitter > 0.0
                    else None
                )
                controller = OverloadController(
                    overload, self.sim, workers=workers, rng=rng
                )
                server.overload = controller
                if self.availability_enabled and overload.withdraw_after is not None:
                    publisher = self.publishers[server.node_id]
                    controller.on_withdraw = publisher.stop
                    controller.on_rejoin = self._make_rejoin(server, publisher)

        self._runner_active = False
        self._init_lifecycle(policy, request_timeout, max_retries, reliability)

    def should_publish(self, node_id: int) -> bool:
        """Whether server ``node_id`` may (re)start its availability
        publisher right now.

        Single source of truth for every publisher-restart site (crash
        recovery, overload rejoin, autoscale activation): a dead server
        must stay silent, an overload-withdrawn server re-advertises
        only through its controller's own rejoin, and a server the
        autoscaler has parked stays out of the pool even across a
        crash/recover cycle.
        """
        server = self.servers[node_id]
        if not server.alive:
            return False
        if server.overload is not None and server.overload.withdrawn:
            return False
        if self.autoscaler is not None and not self.autoscaler.is_active(node_id):
            return False
        return True

    def _make_rejoin(self, server: ServerNode, publisher: ServicePublisher):
        """Recovery callback for an overload-withdrawn server: resume
        publishing — unless the server crashed while withdrawn (the
        chaos injector owns the publisher of a dead node) or the
        autoscaler has parked it meanwhile."""

        def rejoin() -> None:
            if self.should_publish(server.node_id):
                publisher.start()

        return rejoin

    # ------------------------------------------------------------------
    # transport: the simulated network
    # ------------------------------------------------------------------
    def poll_server(
        self,
        client: ClientNode,
        server_id: int,
        on_reply: Callable[[int, int, float], None],
    ) -> None:
        """Send a load inquiry; ``on_reply(server_id, queue_length, observed_at)``.

        ``observed_at`` is the simulation time the queue length was read
        at the server — the reply's information is already that old when
        the callback fires (telemetry derives decision staleness from it).

        Simulation model: one idle UDP round trip (290 µs), queue length
        read when the inquiry reaches the server.

        Prototype model (``overhead`` set): additionally charges client
        CPU for the send/receive, steals server CPU for handling the
        inquiry, and delays the reply by a load-dependent scheduling
        delay — the two §4.1 overhead sources. The queue length is still
        the value at inquiry arrival, so a slow reply carries *stale*
        information (§3.2's motivation for discarding slow polls).
        """
        overhead = self.overhead
        send_delay = 0.0
        if overhead is not None:
            send_delay = client.occupy(overhead.poll_send_cost)

        def deliver_poll(_message: Message) -> None:
            server = self.servers[server_id]
            queue_length = server.queue_length
            observed_at = self.sim.now
            extra = 0.0
            if overhead is not None:
                extra = overhead.sample_reply_delay(
                    server, self.rng_hub.stream("overhead.poll_delay")
                )
                server.steal_cpu(overhead.poll_cpu_cost)

            def deliver_reply(_reply: Message) -> None:
                if overhead is not None:
                    recv_delay = client.occupy(overhead.poll_recv_cost)
                    if recv_delay > 0.0:
                        self.sim.after(
                            recv_delay,
                            lambda: on_reply(server_id, queue_length, observed_at),
                        )
                        return
                on_reply(server_id, queue_length, observed_at)

            self.network.send(
                MessageKind.POLL_REPLY,
                server_id,
                client.node_id,
                None,
                deliver_reply,
                extra_delay=extra,
            )

        self.network.send(
            MessageKind.POLL,
            client.node_id,
            server_id,
            None,
            deliver_poll,
            extra_delay=send_delay,
        )

    # The benchmark's tracer patches ``ServiceCluster.__dict__["dispatch"]``.
    dispatch = RequestLifecycle.dispatch

    def _send_request(self, client: ClientNode, request: Request, server_id: int) -> None:
        self.network.send(
            MessageKind.REQUEST,
            client.node_id,
            server_id,
            request,
            self._deliver_request,
        )

    def run(self, max_events_per_chunk: int = 200_000) -> ClusterMetrics:
        """Run until every request has completed (or failed terminally)."""
        if self._arrival_times is None or self.metrics is None:
            raise SimulationError("load_workload() must be called before run()")
        self.sim.at(float(self._arrival_times[0]), self._on_arrival, 0)
        self._runner_active = True
        try:
            while self._completed < self.n_requests:
                executed_before = self.sim.events_executed
                try:
                    self.sim.run(max_events=max_events_per_chunk)
                except _RunComplete:
                    break
                if self.sim.events_executed == executed_before:
                    raise SimulationError(
                        f"deadlock: {self.n_requests - self._completed} requests "
                        "incomplete but no events pending (a message was dropped "
                        "without request_timeout set?)"
                    )
        finally:
            self._runner_active = False
        for hook in self._at_run_end:
            hook()
        return self.metrics

    def _all_resolved(self) -> None:
        if self._runner_active:
            raise _RunComplete

    def _deliver_request(self, message: Message) -> None:
        server = self.servers[message.dst]
        request: Request = message.payload
        if request.done or request.queued_at >= 0:
            # Duplicated delivery, or a timeout retry raced an earlier
            # copy: at most one live copy may occupy a server queue, and
            # a finished request never re-enters service.
            self.duplicate_deliveries_ignored += 1
            return
        if self.reliability is not None and self.reliability.copy_collides(
            request, server.node_id
        ):
            # A sibling copy (primary or hedge) of the same request is
            # already held by this server; two copies sharing an index
            # must never coexist in one server's bookkeeping.
            self.duplicate_deliveries_ignored += 1
            return
        if not server.alive:
            self.handle_server_loss(request)
            return
        if not server.enqueue(request):
            if request.hedge is not None:
                # A rejected hedge copy is simply dropped — it must not
                # touch the primary's timeout handle (shared index) or
                # spawn a parallel retry lifecycle.
                self.reliability.on_clone_lost(request)
                return
            # Admission control rejected (static bound or adaptive
            # shedding): the retry, whenever it runs, must not re-pick
            # this server, and its breaker absorbs the signal.
            request.rejects += 1
            request.last_rejected_by = server.node_id
            if server.overload is not None and server.overload.policy.fast_reject:
                # Fast-reject NACK: tell the client now, over the wire,
                # instead of letting it burn its timeout budget. The
                # attempt timeout stays armed — it is the loss-recovery
                # path for a NACK the network eats.
                self.rejects_sent += 1
                self.network.send(
                    MessageKind.REJECT,
                    server.node_id,
                    request.client_id,
                    (request, request.retries),
                    self._deliver_reject,
                )
                return
            # No NACK (no fast-reject controller): handled at once, like
            # a NACK that arrived (the retry counts against max_retries).
            self._on_reject(request, request.retries, server.node_id)

    def _deliver_reject(self, message: Message) -> None:
        request, attempt = message.payload
        self._on_reject(request, attempt, message.src)

    def _on_server_complete(self, server: ServerNode, request: Request) -> None:
        if self.dispatchers is not None:
            # Tier-routed requests return through their dispatcher so it
            # observes the completion (admission/breaker signals); a
            # dead dispatcher loses the response and the client's
            # attempt timeout recovers. Hedge clones (dispatcher_id
            # == -1) keep the direct server→client path.
            dispatcher = self.dispatchers.backhaul_target(request)
            if dispatcher is not None:
                self.network.send(
                    MessageKind.RESPONSE,
                    server.node_id,
                    dispatcher.node_id,
                    request,
                    self.dispatchers._deliver_backhaul,  # noqa: SLF001
                )
                return
        self.network.send(
            MessageKind.RESPONSE,
            server.node_id,
            request.client_id,
            request,
            self._deliver_response,
        )

    def _deliver_response(self, message: Message) -> None:
        self._on_response(message.payload)

    def handle_server_loss(self, request: Request) -> None:
        """A server crashed with this request queued/in flight."""
        if request.hedge is not None:
            # A hedge copy hit a dead server: drop the copy; the primary
            # request's own timeout/deadline machinery recovers. (Must
            # not fall through to _retry — a clone shares the primary's
            # index, so it would cancel the primary's timeout handle.)
            self.reliability.on_clone_lost(request)
            return
        self.server_loss_retries += 1
        self._cancel_attempt_timeout(request)
        for hook in self._at_server_loss:
            hook(request)
        self._retry(request)

    # ------------------------------------------------------------------
    def overload_counters(self) -> dict[str, float]:
        """Archive-ready admission/overload tallies.

        ``requests_rejected`` (the per-server ``rejected_count`` sum) is
        always present — rejections from the static ``max_queue`` bound
        must be visible even on runs without the overload subsystem.
        The shedding/withdrawal/NACK counters appear only when overload
        control is enabled.
        """
        counters: dict[str, float] = {
            "requests_rejected": float(
                sum(server.rejected_count for server in self.servers)
            ),
        }
        tallies = [
            server.overload.counters() for server in self.servers if server.overload is not None
        ]
        if tallies:
            counters.update({name: float(sum(t[name] for t in tallies)) for name in tallies[0]})
            counters["rejects_sent"] = float(self.rejects_sent)
            counters["stale_rejects_ignored"] = float(self.stale_rejects_ignored)
        return counters

    def total_stolen_cpu(self) -> float:
        """CPU seconds stolen from services by poll handling (all servers)."""
        return sum(server.stolen_cpu_total for server in self.servers)

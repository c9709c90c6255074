"""Request reliability layer: deadlines, backoff, hedging, breakers.

The paper's prototype survives node failures only through soft-state TTL
expiry (§3.1) plus client-side timeout/retry. That recovery path is
naive under correlated faults: every timeout re-selects immediately, so
a partition or crash storm turns into a synchronized retry storm against
the surviving servers. This module is the hardened alternative — one
deterministic state machine the cluster consults on every attempt:

- **deadline budgets** — a total per-request budget measured from
  arrival, split evenly across the remaining attempts (superseding the
  flat per-attempt ``request_timeout``); a request whose budget is
  exhausted fails fast instead of burning further retries;
- **jittered exponential backoff** between retries, with a per-client
  token-bucket **retry budget** that degrades to fail-fast when
  exhausted (a retry storm drains the bucket, arrivals after that see
  one clean failure instead of amplifying the storm);
- **hedged requests** — a hedge timer armed at a configurable quantile
  of observed response times dispatches a second copy of the request to
  a different server; the first response wins and the loser is
  cancelled through the existing duplicate-suppression guards
  (``Request.done`` / ``queued_at``);
- **per-server circuit breakers** — consecutive timeouts/losses eject a
  server from the candidate set (composing with the availability
  subsystem's soft-state expiry, which is much slower than a breaker),
  and a cooldown half-opens it for probing back in. Fast-reject NACKs
  from overloaded servers (:mod:`repro.cluster.overload`) feed the same
  breakers via :meth:`ReliabilityEngine.on_reject`, and hedges never
  target a server that already rejected the request.

Every mechanism is **off by default**: a cluster built without a
:class:`ReliabilityPolicy` (or with the all-default policy) takes
exactly the pre-existing code paths — no extra events, no RNG draws —
so paper-reproduction runs stay bit-identical. All randomness flows
through the named substreams ``reliability.backoff`` and
``reliability.hedge``, so hardened runs are bit-identical at a fixed
seed under both event engines (the parity suite covers one).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.request import Request
from repro.net.message import MessageKind
from repro.sim.engine import EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.system import ServiceCluster

__all__ = ["ReliabilityPolicy", "CircuitBreaker", "ReliabilityEngine", "install"]

#: floor for a computed attempt timeout: a request whose deadline budget
#: is (numerically) exhausted still gets a well-formed timer; the retry
#: path then fails it fast on the deadline check
_MIN_ATTEMPT_TIMEOUT = 1e-6

#: retry *k* backs off ``min(BACKOFF_CAP, backoff_base * BACKOFF_MULT**(k-1))``
#: seconds, of which the upper ``BACKOFF_JITTER`` share is drawn uniformly
BACKOFF_MULT = 2.0
BACKOFF_CAP = 1.0
BACKOFF_JITTER = 0.5
#: retry-budget tokens returned to a client's bucket per simulated second
RETRY_BUDGET_REFILL = 10.0
#: the hedge delay is a quantile of the last ``HEDGE_WINDOW`` successful
#: response times, and no hedge is armed before ``HEDGE_MIN_SAMPLES``
HEDGE_MIN_SAMPLES = 32
HEDGE_WINDOW = 512


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Declarative reliability knobs (all JSON-native scalars).

    Like :class:`~repro.cluster.failures.ChaosSpec`, the policy is a
    plain value object so it can live inside a
    :class:`~repro.experiments.config.SimulationConfig`
    (``reliability_params``) and participate in the content-addressed
    result cache. The default instance disables every mechanism.

    - ``deadline`` — total per-request time budget in seconds, measured
      from arrival; ``None`` keeps the flat per-attempt
      ``request_timeout`` semantics.
    - ``backoff_base`` — retry *k* waits ``min(BACKOFF_CAP, base *
      BACKOFF_MULT**(k-1))``, the upper ``BACKOFF_JITTER`` of it
      uniformly jittered (equal jitter), before re-selecting;
      ``backoff_base = 0`` disables backoff (immediate re-select, the
      naive behavior).
    - ``retry_budget`` — per-client token-bucket capacity; each retry
      spends one token, the bucket refills at ``RETRY_BUDGET_REFILL``
      tokens per simulated second. An empty bucket degrades the client
      to fail-fast. ``None`` = unlimited retries (up to ``max_retries``).
    - ``hedge_quantile`` — arm a hedge timer at this quantile of the
      last ``HEDGE_WINDOW`` observed response times (needs at least
      ``HEDGE_MIN_SAMPLES`` observations); ``None`` disables hedging.
    - ``breaker_threshold`` — consecutive failures (timeouts or server
      losses) that open a server's circuit breaker; ``None`` disables
      breakers. An open breaker ejects the server from candidate sets
      for ``breaker_cooldown`` seconds, then half-opens: the next
      outcome closes it (success) or re-opens it (failure).
    """

    deadline: Optional[float] = None
    backoff_base: float = 0.0
    retry_budget: Optional[float] = None
    hedge_quantile: Optional[float] = None
    breaker_threshold: Optional[int] = None
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.retry_budget is not None and self.retry_budget < 1:
            raise ValueError(
                f"retry_budget must be >= 1 or None, got {self.retry_budget}"
            )
        if self.hedge_quantile is not None and not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError(
                f"hedge_quantile must be in (0, 1) or None, got {self.hedge_quantile}"
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
        """True when any mechanism is active (the engine is installed)."""
        return (
            self.deadline is not None
            or self.backoff_base > 0.0
            or self.retry_budget is not None
            or self.hedge_quantile is not None
            or self.breaker_threshold is not None
        )

    @classmethod
    def field_names(cls) -> frozenset:
        """The set of knob names (used to validate config dicts)."""
        return frozenset(f.name for f in fields(cls))


class CircuitBreaker:
    """Per-server breaker: closed -> open -> half-open state machine.

    ``closed`` counts consecutive failures; at ``threshold`` the breaker
    opens for ``cooldown`` seconds (the server leaves candidate sets).
    The open->half-open transition is evaluated lazily at query time (no
    sweeper events): once the cooldown elapses the server is offered as
    a probe target, and the next recorded outcome decides — success
    closes the breaker, failure re-opens it for another cooldown.
    """

    __slots__ = ("threshold", "cooldown", "failures", "_open_until", "opens")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        #: consecutive failures since the last success (closed state)
        self.failures = 0
        #: end of the current cooldown; -inf means not open
        self._open_until = -math.inf
        #: times this breaker tripped (open transitions)
        self.opens = 0

    def state(self, now: float) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` at time ``now``."""
        if self._open_until == -math.inf:
            return "closed"
        return "open" if now < self._open_until else "half_open"

    def allows(self, now: float) -> bool:
        """Whether the server may receive requests at time ``now``."""
        return now >= self._open_until

    def record_failure(self, now: float) -> None:
        state = self.state(now)
        if state == "half_open":
            # The probe failed: straight back to open.
            self._open_until = now + self.cooldown
            self.opens += 1
            return
        if state == "open":
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self._open_until = now + self.cooldown
            self.opens += 1

    def record_success(self, now: float) -> None:
        self.failures = 0
        self._open_until = -math.inf


class _RequestState:
    """Per-request reliability bookkeeping (created at first dispatch)."""

    __slots__ = ("last_server", "attempt", "hedge_handle", "clones", "rejected_servers")

    def __init__(self) -> None:
        #: target of the most recent primary dispatch (breaker attribution)
        self.last_server: int = -1
        #: ``request.retries`` at the most recent primary dispatch
        self.attempt: int = 0
        #: pending hedge timer, if armed
        self.hedge_handle: Optional[EventHandle] = None
        #: hedge copies launched for this request (any attempt)
        self.clones: list[Request] = []
        #: servers that rejected this request (admission control / shed
        #: NACKs); hedges never target them — a copy sent to a server
        #: that just declined the primary would be shed right back
        self.rejected_servers: set[int] = set()


class ReliabilityEngine:
    """Runtime state machine for one cluster's :class:`ReliabilityPolicy`.

    Installed as ``cluster.reliability`` by :func:`install` (``None``
    when the layer is off). It subscribes to the cluster's ``dispatch``, ``terminal``,
    ``reject``, ``timeout`` and ``server_loss`` lifecycle points, and the
    cluster asks it for candidate filters, timeouts, backoffs and
    collisions where it decides. The engine never touches the simulator
    except to arm/cancel hedge timers and it draws randomness only from
    its two named substreams.
    """

    def __init__(self, cluster: "ServiceCluster", policy: ReliabilityPolicy):
        self.cluster = cluster
        self.policy = policy
        self._states: dict[int, _RequestState] = {}
        #: client_id -> (tokens, last_refill_time) token buckets
        self._buckets: dict[int, tuple[float, float]] = {}
        self.breakers: dict[int, CircuitBreaker] = {}
        if policy.breaker_threshold is not None:
            self.breakers = {
                server.node_id: CircuitBreaker(
                    policy.breaker_threshold, policy.breaker_cooldown
                )
                for server in cluster.servers
            }
        # Observed (successful) response times feeding the hedge-delay
        # quantile, kept twice: in arrival order (which value to evict)
        # and sorted (where the quantile's two neighbours sit).
        self._observed: deque[float] = deque(maxlen=HEDGE_WINDOW)
        self._observed_sorted: list[float] = []

        # Counters (surfaced through resilience_counters / telemetry).
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.hedge_losses = 0
        self.clones_lost = 0
        self.retry_budget_exhausted = 0
        self.deadline_exceeded = 0
        self.rejects_signaled = 0

    # ------------------------------------------------------------------
    # deadline budget
    # ------------------------------------------------------------------
    def attempt_timeout(self, request: Request) -> Optional[float]:
        """Timeout for the attempt being armed now.

        With a deadline budget: the remaining budget split evenly across
        the attempts still allowed, never exceeding the flat
        ``request_timeout`` when one is also set. Without a deadline:
        the flat ``request_timeout`` (possibly ``None``).
        """
        flat = self.cluster.request_timeout
        deadline = self.policy.deadline
        if deadline is None:
            return flat
        remaining = request.arrival_time + deadline - self.cluster.sim.now
        attempts_left = max(1, self.cluster.max_retries + 1 - request.retries)
        per_attempt = max(remaining / attempts_left, _MIN_ATTEMPT_TIMEOUT)
        if flat is not None:
            per_attempt = min(per_attempt, flat)
        return per_attempt

    # ------------------------------------------------------------------
    # retry budget + backoff
    # ------------------------------------------------------------------
    def _take_retry_token(self, client_id: int) -> bool:
        capacity = self.policy.retry_budget
        if capacity is None:
            return True
        now = self.cluster.sim.now
        # A fresh bucket is full *now* — not at t=0, which is only the
        # origin of the simulator's clock (the Clock seam allows any).
        tokens, last = self._buckets.get(client_id, (capacity, now))
        tokens = min(capacity, tokens + (now - last) * RETRY_BUDGET_REFILL)
        if tokens >= 1.0:
            self._buckets[client_id] = (tokens - 1.0, now)
            return True
        self._buckets[client_id] = (tokens, now)
        return False

    def should_fail_fast(self, request: Request) -> bool:
        """Terminal-failure check on the retry path: deadline exhausted,
        or no retry token left for this client."""
        deadline = self.policy.deadline
        if (
            deadline is not None
            and self.cluster.sim.now >= request.arrival_time + deadline - 1e-12
        ):
            self.deadline_exceeded += 1
            return True
        if not self._take_retry_token(request.client_id):
            self.retry_budget_exhausted += 1
            return True
        return False

    def backoff_delay(self, request: Request) -> float:
        """Jittered exponential backoff before retry ``request.retries``."""
        base = self.policy.backoff_base
        if base <= 0.0:
            return 0.0
        delay = min(BACKOFF_CAP, base * BACKOFF_MULT ** max(0, request.retries - 1))
        u = float(self.cluster.rng("reliability.backoff").random())
        return delay * (1.0 - BACKOFF_JITTER) + delay * BACKOFF_JITTER * u

    # ------------------------------------------------------------------
    # circuit breakers
    # ------------------------------------------------------------------
    def filter_candidates(self, candidates: Sequence[int]) -> Sequence[int]:
        """Remove open-breaker servers from a candidate set.

        Fails open: if every candidate's breaker is open, the unfiltered
        set is returned — a degraded server is better than none, and the
        NoCandidatesError re-select loop would otherwise spin.
        """
        if not self.breakers:
            return candidates
        now = self.cluster.sim.now
        allowed = [s for s in candidates if self.breakers[s].allows(now)]
        return allowed if allowed else candidates

    def breaker_state(self, server_id: int) -> str:
        """Breaker state label for telemetry (``"closed"`` when off)."""
        breaker = self.breakers.get(server_id)
        if breaker is None:
            return "closed"
        return breaker.state(self.cluster.sim.now)

    def breaker_opens(self) -> int:
        return sum(breaker.opens for breaker in self.breakers.values())

    def on_attempt_failure(self, request: Request) -> None:
        """A primary attempt failed (timeout fired or server lost):
        charge the breaker of the server the attempt targeted.

        Only charged when the failing attempt is the one that was
        actually dispatched (``state.attempt`` matches): a timeout that
        fires during the *select* phase of a later attempt must not
        re-charge the previous attempt's server.
        """
        if not self.breakers:
            return
        state = self._states.get(request.index)
        if state is None or state.last_server < 0:
            return
        if state.attempt != request.retries:
            return
        breaker = self.breakers.get(state.last_server)
        if breaker is not None:
            breaker.record_failure(self.cluster.sim.now)

    def on_reject(self, request: Request, server_id: int) -> None:
        """An admission-control rejection (instant or fast-reject NACK)
        reached the client: treat it as a breaker signal for the
        rejecting server and exclude that server from future hedges.

        Unlike :meth:`on_attempt_failure`, the rejecting server is
        named explicitly by the NACK, so no attempt-matching guard is
        needed — the attribution cannot be stale.
        """
        self.rejects_signaled += 1
        state = self._states.get(request.index)
        if state is not None:
            state.rejected_servers.add(server_id)
        if self.breakers:
            breaker = self.breakers.get(server_id)
            if breaker is not None:
                breaker.record_failure(self.cluster.sim.now)

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_dispatch(self, client, request: Request, server_id: int) -> None:
        """A primary dispatch committed to ``server_id``: update state,
        emit the attempt record, and arm the hedge timer if eligible."""
        state = self._states.get(request.index)
        if state is None:
            state = _RequestState()
            self._states[request.index] = state
        state.last_server = server_id
        state.attempt = request.retries
        telemetry = self.cluster.telemetry
        if telemetry is not None:
            telemetry.on_attempt(
                request, server_id, "primary", self.breaker_state(server_id)
            )
        if self.policy.hedge_quantile is not None and state.hedge_handle is None:
            delay = self._hedge_delay()
            if delay is not None:
                state.hedge_handle = self.cluster.sim.after(
                    delay, self._fire_hedge, request
                )

    def on_retry(self, request: Request) -> None:
        """A retry superseded the current attempt: disarm its hedge."""
        state = self._states.get(request.index)
        if state is not None and state.hedge_handle is not None:
            self.cluster.sim.cancel(state.hedge_handle)
            state.hedge_handle = None

    def copy_collides(self, request: Request, server_id: int) -> bool:
        """Whether a *sibling* copy of ``request`` (primary or hedge) is
        already held by ``server_id``. Copies share the primary's index,
        and a server's bookkeeping is keyed by index — two copies must
        never coexist on one server."""
        primary = request if request.hedge is None else request.hedge
        state = self._states.get(primary.index)
        if state is None:
            return False
        if primary is not request and primary.queued_at == server_id:
            return True
        for clone in state.clones:
            if clone is not request and clone.queued_at == server_id:
                return True
        return False

    def on_clone_lost(self, clone: Request) -> None:
        """A hedge copy hit a dead/rejecting server: drop it silently —
        the primary's own timeout/deadline machinery recovers."""
        self.clones_lost += 1
        clone.done = True

    def on_terminal(self, primary: Request, winner: Optional[Request]) -> None:
        """The request reached its terminal outcome. On success
        (``winner`` is the copy whose response won the race) settle
        hedges and breakers first; either way disarm the hedge timer,
        cancel surviving copies and drop the request's state."""
        state = self._states.pop(primary.index, None)
        if winner is not None:
            if state is not None and state.clones:
                if winner is not primary:
                    self.hedge_wins += 1
                else:
                    self.hedge_losses += 1
            if self.breakers and winner.server_id >= 0:
                breaker = self.breakers.get(winner.server_id)
                if breaker is not None:
                    breaker.record_success(self.cluster.sim.now)
            if self.policy.hedge_quantile is not None:
                self._observe(winner.response_time)
        if state is None:
            return
        if state.hedge_handle is not None:
            self.cluster.sim.cancel(state.hedge_handle)
            state.hedge_handle = None
        for clone in state.clones:
            if clone.done:
                continue
            # The done flag suppresses any in-flight delivery of the
            # loser (request or response) via the existing guards; a
            # copy still waiting in a queue is pulled out so it stops
            # consuming server capacity (in-service copies run out —
            # service is non-preemptive — and their responses are
            # discarded as stale).
            clone.done = True
            if clone.queued_at >= 0:
                self.cluster.servers[clone.queued_at].remove_queued(clone)

    # ------------------------------------------------------------------
    # hedging
    # ------------------------------------------------------------------
    def _observe(self, response_time: float) -> None:
        if not math.isfinite(response_time):
            return
        window, ranked = self._observed, self._observed_sorted
        if len(window) == window.maxlen:
            del ranked[bisect_left(ranked, window[0])]
        window.append(response_time)
        insort(ranked, response_time)

    def _hedge_delay(self) -> Optional[float]:
        """The hedge timer delay, or None while observations are scarce:
        ``np.quantile(window, hedge_quantile)`` bit for bit (numpy's
        ``linear`` method on the same two neighbours, the same float64
        operations in the same order) without its O(window) partition."""
        ranked = self._observed_sorted
        if len(ranked) < HEDGE_MIN_SAMPLES:
            return None
        top = len(ranked) - 1
        virtual = top * self.policy.hedge_quantile
        if virtual >= top:
            return ranked[top]
        lo = int(virtual)
        gamma, below, above = virtual - lo, ranked[lo], ranked[lo + 1]
        if gamma < 0.5:
            return below + (above - below) * gamma
        return above - (above - below) * (1.0 - gamma)

    def _fire_hedge(self, request: Request) -> None:
        state = self._states.get(request.index)
        if state is None or request.done:
            return
        state.hedge_handle = None
        if state.attempt != request.retries:
            # A retry superseded the attempt this timer was armed for
            # (defensive: on_retry normally cancels the handle first).
            return
        if any(not clone.done for clone in state.clones):
            # At most one live hedge copy per request.
            return
        cluster = self.cluster
        client = cluster.client_for(request)
        held = {state.last_server, request.queued_at} | state.rejected_servers
        candidates = [s for s in cluster.available_servers(client) if s not in held]
        if not candidates:
            return
        rng = cluster.index_stream("reliability.hedge")
        server_id = candidates[rng.integers(len(candidates))]
        clone = Request(
            index=request.index,
            client_id=request.client_id,
            service_time=request.service_time,
            arrival_time=request.arrival_time,
        )
        clone.dispatch_time = request.dispatch_time
        clone.retries = request.retries
        clone.hedge = request
        state.clones.append(clone)
        self.hedges_launched += 1
        telemetry = cluster.telemetry
        if telemetry is not None:
            telemetry.on_attempt(
                request, server_id, "hedge", self.breaker_state(server_id)
            )
        # The hedge is policy-invisible: it goes straight to the wire
        # (no notify_dispatch, no new attempt timeout — the primary's
        # deadline still governs the logical request).
        cluster.network.send(
            MessageKind.REQUEST,
            client.node_id,
            server_id,
            clone,
            cluster._deliver_request,
        )

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Archive-ready counters (merged into ``chaos_counters``)."""
        return {
            "hedges_launched": float(self.hedges_launched),
            "hedge_wins": float(self.hedge_wins),
            "hedge_losses": float(self.hedge_losses),
            "hedge_clones_lost": float(self.clones_lost),
            "breaker_opens": float(self.breaker_opens()),
            "retry_budget_exhausted": float(self.retry_budget_exhausted),
            "deadline_exceeded": float(self.deadline_exceeded),
            "rejects_signaled": float(self.rejects_signaled),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReliabilityEngine hedges={self.hedges_launched} "
            f"breakers={len(self.breakers)} states={len(self._states)}>"
        )


def install(cluster: "ServiceCluster", **knobs) -> None:
    """Install a :class:`ReliabilityEngine` of ``knobs`` as
    ``cluster.reliability`` (a policy with no mechanism on installs nothing);
    hedging needs the simulated transport."""
    from repro.cluster.system import ServiceCluster

    policy = ReliabilityPolicy(**knobs)
    if not policy.enabled:
        return
    if policy.hedge_quantile is not None and not isinstance(cluster, ServiceCluster):
        raise ValueError(
            "hedged requests are not supported by the live runtime: a hedge "
            "copy is delivered through the simulated network (set "
            "hedge_quantile=None for repro drive)"
        )
    cluster.install("reliability", ReliabilityEngine(cluster, policy))

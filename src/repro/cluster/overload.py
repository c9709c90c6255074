"""Server-side overload control: adaptive admission + graceful degradation.

The paper's admission story is explicitly out of scope ("system
throughput is tightly related to the admission control", §2), and the
cluster's only defense past saturation is the static ``server_max_queue``
bound — which silently drops work while the client-side recovery
machinery (timeouts, retries, hedges) *amplifies* offered load during
overload. This module is the server-side counterpart to the
client-side reliability layer (:mod:`repro.cluster.reliability`), and it
mirrors that module's shape exactly:

- :class:`OverloadPolicy` — a frozen, JSON-native value object carried
  by ``SimulationConfig.overload_params`` (cache-key aware);
- :class:`OverloadController` — the runtime state machine, owned
  per-:class:`~repro.cluster.server.ServerNode` (``server.overload``,
  ``None`` when the subsystem is off: ``ServerNode.enqueue`` asks it
  only when it is there). :func:`install` gives every server one and
  installs an :class:`OverloadControl` as ``cluster.overload``.

Mechanisms (DESIGN.md §12):

- **adaptive admission** — CoDel-style shedding: the controller tracks
  an EWMA of observed service durations and estimates the queueing
  delay a new arrival would see as ``queue_length × ewma / workers``.
  When the estimate stays above ``sojourn_target`` for longer than
  ``interval``, the server enters the *shedding* state and rejects
  arrivals; the first estimate at or below the target exits it. This
  composes with (runs after) the static ``max_queue`` bound.
- **shed jitter** — while shedding, each would-be-shed arrival is
  admitted anyway with probability ``shed_jitter`` (probe traffic that
  lets clients observe recovery early). Draws come only from the named
  substream ``overload.shed.<node_id>`` and only while shedding, so
  disabled runs make no draws at all.
- **load-aware availability withdrawal** — after ``withdraw_after``
  seconds of sustained shedding the server stops publishing on the
  soft-state availability channel (broadcast/polling clients route
  around it as the TTL ages out its entry) and republishes on recovery.

A disabled policy installs nothing: no controller, message or RNG draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.net.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.request import Request
    from repro.cluster.server import ServerNode
    from repro.cluster.system import ServiceCluster
    from repro.sim.engine import Simulator

__all__ = ["OverloadPolicy", "OverloadController", "OverloadControl", "install"]


@dataclass(frozen=True)
class OverloadPolicy:
    """Declarative overload-control knobs (all JSON-native scalars).

    Like :class:`~repro.cluster.reliability.ReliabilityPolicy`, the
    policy is a plain value object so it can live inside a
    :class:`~repro.experiments.config.SimulationConfig`
    (``overload_params``) and participate in the content-addressed
    result cache. The default instance disables the subsystem.

    - ``sojourn_target`` — estimated queueing delay (seconds) above
      which the server begins considering itself overloaded; ``None``
      disables the whole subsystem.
    - ``interval`` — how long the estimate must stay above the target
      before shedding starts (CoDel's interval: short bursts are
      absorbed, sustained overload is shed).
    - ``ewma_alpha`` — smoothing factor for the observed-service-time
      EWMA feeding the delay estimate.
    - ``shed_jitter`` — probability that a would-be-shed request is
      admitted anyway (probe traffic; 0 = deterministic shedding).
    - ``fast_reject`` — send an immediate REJECT NACK over the
      transport for every rejection (static bound included) instead of
      leaving the client to burn its timeout budget.
    - ``withdraw_after`` — seconds of sustained shedding after which
      the server withdraws from the availability channel; ``None``
      disables withdrawal.
    """

    sojourn_target: Optional[float] = None
    interval: float = 0.1
    ewma_alpha: float = 0.2
    shed_jitter: float = 0.0
    fast_reject: bool = True
    withdraw_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sojourn_target is not None and self.sojourn_target <= 0:
            raise ValueError(
                f"sojourn_target must be > 0 or None, got {self.sojourn_target}"
            )
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not 0.0 <= self.shed_jitter < 1.0:
            raise ValueError(
                f"shed_jitter must be in [0, 1), got {self.shed_jitter}"
            )
        if self.withdraw_after is not None and self.withdraw_after < 0:
            raise ValueError(
                f"withdraw_after must be >= 0 or None, got {self.withdraw_after}"
            )

    @property
    def enabled(self) -> bool:
        """True when the controller should be installed at all."""
        return self.sojourn_target is not None

    @classmethod
    def field_names(cls) -> frozenset:
        """The set of knob names (used to validate config dicts)."""
        return frozenset(f.name for f in fields(cls))


class OverloadController:
    """Per-server admission state machine for one :class:`OverloadPolicy`.

    Owned by a :class:`~repro.cluster.server.ServerNode` as
    ``server.overload`` (``None`` when the subsystem is off). The server
    consults :meth:`admit` for every arrival that passed the static
    ``max_queue`` bound and reports every service completion through
    :meth:`observe_completion`; the completion path doubles as the
    recovery detector, so a withdrawn server that clients route around
    still rejoins once its backlog drains.
    """

    __slots__ = (
        "policy",
        "sim",
        "workers",
        "rng",
        "on_withdraw",
        "on_rejoin",
        "ewma_service",
        "shedding",
        "withdrawn",
        "_above_since",
        "shed_count",
        "jitter_admits",
        "withdrawals",
        "rejoins",
    )

    def __init__(
        self,
        policy: OverloadPolicy,
        sim: "Simulator",
        workers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if not policy.enabled:
            raise ValueError("OverloadController requires an enabled policy")
        if policy.shed_jitter > 0.0 and rng is None:
            raise ValueError("shed_jitter > 0 requires an rng substream")
        self.policy = policy
        self.sim = sim
        self.workers = workers
        self.rng = rng
        #: wired by :func:`install` to the server's availability publisher
        #: (``None`` when the availability subsystem is off)
        self.on_withdraw: Optional[Callable[[], None]] = None
        self.on_rejoin: Optional[Callable[[], None]] = None
        #: EWMA of observed service durations; 0 until the first
        #: completion (the estimator admits everything while cold)
        self.ewma_service = 0.0
        #: True while the server is actively rejecting arrivals
        self.shedding = False
        #: True while withdrawn from the availability channel
        self.withdrawn = False
        #: time the delay estimate first exceeded the target (None when
        #: at or below it)
        self._above_since: Optional[float] = None
        self.shed_count = 0
        self.jitter_admits = 0
        self.withdrawals = 0
        self.rejoins = 0

    # ------------------------------------------------------------------
    def estimated_delay(self, queue_length: int) -> float:
        """Queueing delay a new arrival would see, per the estimator."""
        return queue_length * self.ewma_service / self.workers

    def admit(self, queue_length: int) -> bool:
        """Admission verdict for an arrival seeing ``queue_length``."""
        target = self.policy.sojourn_target
        assert target is not None
        if self.estimated_delay(queue_length) <= target:
            self._recover()
            return True
        now = self.sim.now
        if self._above_since is None:
            self._above_since = now
        if not self.shedding:
            if now - self._above_since < self.policy.interval:
                return True
            self.shedding = True
        withdraw_after = self.policy.withdraw_after
        if (
            withdraw_after is not None
            and not self.withdrawn
            and now - self._above_since >= self.policy.interval + withdraw_after
        ):
            self.withdrawn = True
            self.withdrawals += 1
            if self.on_withdraw is not None:
                self.on_withdraw()
        if self.policy.shed_jitter > 0.0:
            assert self.rng is not None
            if float(self.rng.random()) < self.policy.shed_jitter:
                self.jitter_admits += 1
                return True
        self.shed_count += 1
        return False

    def observe_completion(self, request: "Request", queue_length: int) -> None:
        """Fold a finished service into the EWMA and re-evaluate.

        ``queue_length`` is the server's load index *after* the
        completion; re-evaluating here is what lets a withdrawn server
        (which sees no arrivals) detect its own recovery while the
        backlog drains.
        """
        elapsed = self.sim.now - request.start_time
        if math.isfinite(elapsed) and elapsed >= 0.0:
            if self.ewma_service == 0.0:
                self.ewma_service = elapsed
            else:
                alpha = self.policy.ewma_alpha
                self.ewma_service += alpha * (elapsed - self.ewma_service)
        target = self.policy.sojourn_target
        assert target is not None
        if self.estimated_delay(queue_length) <= target:
            self._recover()
        elif self._above_since is None:
            self._above_since = self.sim.now

    def _recover(self) -> None:
        """The estimate dropped to/below the target: exit shedding."""
        self._above_since = None
        self.shedding = False
        if self.withdrawn:
            self.withdrawn = False
            self.rejoins += 1
            if self.on_rejoin is not None:
                self.on_rejoin()

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """This controller's tallies (summed across servers upstream)."""
        return {
            "requests_shed": self.shed_count,
            "shed_jitter_admits": self.jitter_admits,
            "overload_withdrawals": self.withdrawals,
            "overload_rejoins": self.rejoins,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OverloadController shedding={self.shedding} "
            f"withdrawn={self.withdrawn} shed={self.shed_count} "
            f"ewma={self.ewma_service:.6f}>"
        )


class OverloadControl:
    """One cluster's overload subsystem, installed as ``cluster.overload``:
    the ``publish`` subscriber over every server's controller, and what
    :func:`install` rebinds the lifecycle's refusal and counters to."""

    def __init__(self, cluster: "ServiceCluster"):
        self.cluster = cluster

    def publishes(self, node_id: int) -> bool:
        """An overload-withdrawn server re-advertises only through its
        controller's own rejoin."""
        return not self.cluster.servers[node_id].overload.withdrawn

    def nack(self, server: "ServerNode", request: "Request") -> None:
        """Fast-reject NACK: tell the client now, over the wire, instead
        of letting it burn its timeout budget. The attempt timeout stays
        armed — it is the loss-recovery path for a NACK the network eats."""
        cluster = self.cluster
        cluster.rejects_sent += 1
        cluster.network.send(MessageKind.REJECT, server.node_id, request.client_id,
                             (request, request.retries), cluster._deliver_reject)  # noqa: SLF001

    def counters(self) -> dict[str, float]:
        """``requests_rejected`` plus the controllers' summed tallies and
        the NACK counters (``cluster.overload_counters`` once installed)."""
        cluster = self.cluster
        tallies = [server.overload.counters() for server in cluster.servers]
        return {
            "requests_rejected": float(sum(server.rejected_count for server in cluster.servers)),
            **{name: float(sum(t[name] for t in tallies)) for name in tallies[0]},
            "rejects_sent": float(cluster.rejects_sent),
            "stale_rejects_ignored": float(cluster.stale_rejects_ignored),
        }


def install(cluster: "ServiceCluster", **knobs) -> None:
    """Give every server an :class:`OverloadController` of ``knobs`` and
    install an :class:`OverloadControl` as ``cluster.overload`` (a
    disabled policy installs nothing); with ``fast_reject`` a refusal is
    NACKed. With availability on, a withdrawal stops the server's
    publisher and the rejoin restarts it unless ``should_publish`` says no
    (it crashed while withdrawn, or the autoscaler parked it)."""
    policy = OverloadPolicy(**knobs)
    if not policy.enabled:
        return
    for server in cluster.servers:
        rng = (
            cluster.rng_hub.stream(f"overload.shed.{server.node_id}")
            if policy.shed_jitter > 0.0
            else None
        )
        controller = OverloadController(policy, cluster.sim, workers=server.workers, rng=rng)
        server.overload = controller
        if cluster.availability_enabled and policy.withdraw_after is not None:
            publisher = cluster.publishers[server.node_id]
            controller.on_withdraw = publisher.stop

            def rejoin(node_id: int = server.node_id, publisher=publisher) -> None:
                if cluster.should_publish(node_id):
                    publisher.start()

            controller.on_rejoin = rejoin
    control = OverloadControl(cluster)
    nack = {"_refuse": control.nack} if policy.fast_reject else {}
    cluster.rebind(overload_counters=control.counters, **nack)
    cluster.install("overload", control)

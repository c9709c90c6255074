"""Closed-loop server-pool autoscaling over the soft-state machinery.

ROADMAP item 5's control loop: scale the *provisioned* server pool from
the run's own telemetry signals (goodput, shed rate, p95 latency)
instead of statically provisioning for peak. The actuator is the
paper's own soft-state availability protocol — deliberately so:

- **scale-up** starts a parked server's
  :class:`~repro.cluster.availability.ServicePublisher`; clients and
  dispatchers learn about the new capacity the way they learn about
  anything (a PUBLISH lands, the mapping-table entry goes live);
- **scale-down** *stops* the publisher, so the server's soft-state
  entries age out over the TTL while it keeps serving — and finishing —
  everything already queued. Nothing is drained or dropped: scale-down
  is graceful by construction, which the exactly-once hypothesis
  property in ``tests/property`` pins.

Shape mirrors the other opt-in subsystems exactly:

- :class:`AutoscalerPolicy` — frozen, JSON-native value object carried
  by ``SimulationConfig.autoscaler_params`` (cache-key aware);
- :class:`Autoscaler` — the runtime control loop, installed as
  ``cluster.autoscaler`` by :func:`install` (``None`` when off — the
  usual guard).

The control law (DESIGN.md §16) is deliberately simple and **draws no
randomness** (the tick schedule is deterministic, so enabled runs stay
bit-identical across the heap and calendar engines):

- every ``interval`` seconds, fold the window's completions, terminal
  failures, admission rejections (the per-server ``rejected_count``
  delta), and response times;
- **scale up** by ``step_up`` when the shed-or-fail fraction exceeds
  ``shed_high``, or the window p95 exceeds ``p95_high`` (when set);
- **scale down** by ``step_down`` when the window was clean (no sheds,
  no failures) *and* the demand estimate — completions × EWMA service
  time per active-server-second — sits below ``util_low``;
- honor ``cooldown`` seconds between scale-down actions (scale-up is
  never delayed — under-provisioning fails work), and clamp to
  ``[min_servers, max_servers]`` (``max_servers`` defaults to the
  cluster's full pool).

Provisioning cost is tracked as the time-integral of the active-pool
size (``provisioned_server_seconds``), which the autoscale campaign
divides goodput by — the headline goodput-vs-provisioning-cost metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.cluster.metrics import quantiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.request import Request
    from repro.cluster.system import ServiceCluster

__all__ = ["AutoscalerPolicy", "Autoscaler", "install"]

#: smoothing of the observed-service-time EWMA behind the demand estimate
EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Declarative autoscaler knobs (all JSON-native scalars).

    The default instance disables the subsystem (``interval=None``).

    - ``interval`` — control-loop period in seconds; ``None`` disables.
    - ``min_servers`` / ``max_servers`` — pool bounds; ``max_servers=0``
      means "the cluster's full ``n_servers``".
    - ``initial_servers`` — pool size at t=0; ``0`` means
      ``min_servers``.
    - ``shed_high`` — shed-or-fail fraction of the window's offered
      work above which the loop scales up.
    - ``p95_high`` — window p95 response time (seconds) above which the
      loop scales up; ``None`` disables the latency trigger.
    - ``util_low`` — demand estimate (completions × EWMA service time
      per active-server-second) below which a clean window scales down.
    - ``step_up`` / ``step_down`` — servers activated/parked per action.
    - ``cooldown`` — minimum seconds between scale-*down* actions
      (0 = every clean tick may shrink); scale-up is never delayed.
    """

    interval: Optional[float] = None
    min_servers: int = 1
    max_servers: int = 0
    initial_servers: int = 0
    shed_high: float = 0.02
    p95_high: Optional[float] = None
    util_low: float = 0.5
    step_up: int = 2
    step_down: int = 1
    cooldown: float = 0.0

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ValueError(f"interval must be > 0 or None, got {self.interval}")
        if self.min_servers < 1:
            raise ValueError(f"min_servers must be >= 1, got {self.min_servers}")
        if self.max_servers < 0:
            raise ValueError(f"max_servers must be >= 0, got {self.max_servers}")
        if self.initial_servers < 0:
            raise ValueError(
                f"initial_servers must be >= 0, got {self.initial_servers}"
            )
        if not 0.0 <= self.shed_high < 1.0:
            raise ValueError(f"shed_high must be in [0, 1), got {self.shed_high}")
        if self.p95_high is not None and self.p95_high <= 0:
            raise ValueError(f"p95_high must be > 0 or None, got {self.p95_high}")
        if not 0.0 <= self.util_low <= 1.0:
            raise ValueError(f"util_low must be in [0, 1], got {self.util_low}")
        if self.step_up < 1 or self.step_down < 1:
            raise ValueError(
                f"step_up/step_down must be >= 1, got {self.step_up}/{self.step_down}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")

    @property
    def enabled(self) -> bool:
        """True when the control loop should be installed at all."""
        return self.interval is not None

    def pool(self, n: int) -> tuple[int, int]:
        """``(max_servers, initial_servers)`` resolved against a
        provisioned pool of ``n`` servers; ``ValueError`` when they do
        not fit it."""
        resolved_max = self.max_servers or n
        if resolved_max > n:
            raise ValueError(
                f"max_servers ({resolved_max}) exceeds the provisioned pool ({n})"
            )
        if self.min_servers > resolved_max:
            raise ValueError(
                f"min_servers ({self.min_servers}) exceeds max_servers "
                f"({resolved_max})"
            )
        initial = self.initial_servers or self.min_servers
        if not self.min_servers <= initial <= resolved_max:
            raise ValueError(
                f"initial_servers ({initial}) outside "
                f"[{self.min_servers}, {resolved_max}]"
            )
        return resolved_max, initial

    @classmethod
    def field_names(cls) -> frozenset:
        """The set of knob names (used to validate config dicts)."""
        return frozenset(f.name for f in fields(cls))


class Autoscaler:
    """Runtime control loop for one cluster's :class:`AutoscalerPolicy`.

    Installed before the availability subsystem wires publishers, so
    availability can gate its initial table priming and publisher starts
    on :meth:`is_active`; :meth:`start` (called by availability's
    install once the publishers exist) schedules the first tick.
    """

    def __init__(self, cluster: "ServiceCluster", policy: AutoscalerPolicy):
        if not policy.enabled:
            raise ValueError("Autoscaler requires an enabled policy")
        resolved_max, initial = policy.pool(cluster.n_servers)
        self.cluster = cluster
        self.policy = policy
        self.min_servers = policy.min_servers
        self.max_servers = resolved_max
        #: active pool: the lowest-id ``initial`` servers (deterministic)
        self._active: set[int] = set(range(initial))
        # Window accumulators (reset every tick).
        self._window_completions = 0
        self._window_failures = 0
        self._window_responses: list[float] = []
        self._last_rejected = 0
        #: EWMA of observed service durations (demand estimate input)
        self.ewma_service = 0.0
        # Provisioning-cost integral.
        self._last_change = 0.0
        self._provisioned_ss = 0.0
        self._last_action = -math.inf
        #: (time, "up"/"down", active_after) scale events, in order
        self.events: list[tuple[float, str, int]] = []
        self.scale_ups = 0
        self.scale_downs = 0

    # ------------------------------------------------------------------
    def is_active(self, node_id: int) -> bool:
        """Whether ``node_id`` is in the provisioned (publishing) pool."""
        return node_id in self._active

    @property
    def n_active(self) -> int:
        return len(self._active)

    def start(self) -> None:
        """Start the control loop (publishers must exist by now)."""
        assert self.policy.interval is not None
        self.cluster.sim.after(self.policy.interval, self._tick)

    # ------------------------------------------------------------------
    # window signals (cluster lifecycle hooks)
    # ------------------------------------------------------------------
    def on_terminal(self, request: "Request", winner: Optional["Request"]) -> None:
        if winner is None:
            self._window_failures += 1
            return
        self._window_completions += 1
        self._window_responses.append(request.response_time)
        elapsed = request.completion_time - request.start_time
        if math.isfinite(elapsed) and elapsed >= 0.0:
            if self.ewma_service == 0.0:
                self.ewma_service = elapsed
            else:
                self.ewma_service += EWMA_ALPHA * (elapsed - self.ewma_service)

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        policy = self.policy
        assert policy.interval is not None
        rejected = sum(server.rejected_count for server in self.cluster.servers)
        sheds = rejected - self._last_rejected
        self._last_rejected = rejected
        completions = self._window_completions
        failures = self._window_failures
        offered = completions + failures + sheds
        bad_fraction = (failures + sheds) / offered if offered else 0.0
        p95 = quantiles(self._window_responses, (0.95,))[0] if self._window_responses else 0.0
        overloaded = offered > 0 and bad_fraction > policy.shed_high
        if policy.p95_high is not None and p95 > policy.p95_high:
            overloaded = True
        now = self.cluster.sim.now
        can_act = now - self._last_action >= policy.cooldown
        # Scale-up is never delayed by the cooldown: under-provisioning
        # actively fails work, so the loop reacts on every overloaded
        # tick. The cooldown only damps scale-*down* (flapping costs
        # publish/withdraw churn, not goodput).
        if overloaded:
            self._scale(policy.step_up)
        elif (
            can_act
            and completions > 0
            and failures == 0
            and sheds == 0
            and self._demand_fraction(completions) < policy.util_low
        ):
            self._scale(-policy.step_down)
        self._window_completions = 0
        self._window_failures = 0
        self._window_responses.clear()
        self.cluster.sim.after(policy.interval, self._tick)

    def _demand_fraction(self, completions: int) -> float:
        """Window demand per active-server-second (utilization proxy)."""
        assert self.policy.interval is not None
        capacity = self.policy.interval * max(1, self.n_active)
        return completions * self.ewma_service / capacity

    def _scale(self, delta: int) -> None:
        target = min(self.max_servers, max(self.min_servers, self.n_active + delta))
        if target == self.n_active:
            return
        now = self.cluster.sim.now
        self._provisioned_ss += self.n_active * (now - self._last_change)
        self._last_change = now
        if target > self.n_active:
            # Activate the lowest-id parked servers (deterministic).
            parked = (
                i for i in range(self.cluster.n_servers) if i not in self._active
            )
            for node_id in parked:
                if self.n_active >= target:
                    break
                self._active.add(node_id)
                self._start_publishing(node_id)
            self.scale_ups += 1
            self.events.append((now, "up", self.n_active))
        else:
            # Park the highest-id active servers; stopping the publisher
            # lets soft state age out while queued work finishes.
            for node_id in sorted(self._active, reverse=True):
                if self.n_active <= target:
                    break
                self._active.discard(node_id)
                publisher = self.cluster.publishers.get(node_id)
                if publisher is not None:
                    publisher.stop()
            self.scale_downs += 1
            self.events.append((now, "down", self.n_active))
        self._last_action = now

    def _start_publishing(self, node_id: int) -> None:
        publisher = self.cluster.publishers.get(node_id)
        if publisher is not None and self.cluster.should_publish(node_id):
            publisher.start()

    # ------------------------------------------------------------------
    def provisioned_server_seconds(self) -> float:
        """Time-integral of the active-pool size up to *now*."""
        now = self.cluster.sim.now
        return self._provisioned_ss + self.n_active * (now - self._last_change)

    def counters(self) -> dict[str, float]:
        """Archive-ready scaling tallies (chaos_counters channel)."""
        now = self.cluster.sim.now
        provisioned = self.provisioned_server_seconds()
        return {
            "autoscale_ups": float(self.scale_ups),
            "autoscale_downs": float(self.scale_downs),
            "autoscale_final_active": float(self.n_active),
            "autoscale_mean_active": (provisioned / now) if now > 0 else float(
                self.n_active
            ),
            "provisioned_server_seconds": provisioned,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Autoscaler active={self.n_active}/"
            f"[{self.min_servers},{self.max_servers}] "
            f"ups={self.scale_ups} downs={self.scale_downs}>"
        )


def install(cluster: "ServiceCluster", **knobs) -> None:
    """Install an :class:`Autoscaler` of ``knobs`` as ``cluster.autoscaler``
    (a disabled policy installs nothing); availability's install starts it."""
    policy = AutoscalerPolicy(**knobs)
    if policy.enabled:
        cluster.install("autoscaler", Autoscaler(cluster, policy))

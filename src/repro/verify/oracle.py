"""Inline invariant oracle for :class:`repro.cluster.system.ServiceCluster`.

The oracle validates a catalogue of machine-checkable invariants (see
DESIGN.md §17) while a simulation runs:

* **lifecycle hooks** — ``on_arrival`` / ``on_dispatch`` /
  ``on_terminal`` / ``on_run_end`` subscribe to the lifecycle points of
  the same names in ``system.py`` once :func:`install` puts the oracle
  in ``cluster.oracle`` (a run without it calls none of them).  These prove
  request conservation and exactly-once terminal outcomes under hedging,
  retries, and NACKs.
* **event hook** — the oracle chains onto ``Simulator.trace`` and
  checks clock monotonicity per event; every ``check_interval`` events
  it runs a full state scan across every enabled subsystem (servers,
  publishers, admission controllers, breakers, dispatcher tier,
  autoscaler, policy-local counters).

The oracle draws **no** randomness and schedules **no** events, so a
verify-enabled run is bit-identical across the heap and calendar
engines, and a verify-disabled run is bit-identical to the pre-oracle
code path (``cluster.oracle`` stays ``None``).

Scans run from the trace hook *between* events — after the engine set
``now`` and before the event callback fires — so synchronous
multi-step transitions inside one event (crash → drain → withdraw) are
never observed half-done.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.request import Request
    from repro.cluster.system import ServiceCluster
    from repro.sim.engine import EventHandle

__all__ = ["InvariantOracle", "InvariantViolation", "install"]


class InvariantViolation(AssertionError):
    """An invariant breach detected by the oracle.

    Carries only its message string so it survives a round-trip through
    :mod:`pickle` (the sweep executor runs clusters in worker
    processes).
    """


_NEG_INF = float("-inf")


class InvariantOracle:
    """Event-hook invariant checker; installed as ``cluster.oracle``.

    Parameters
    ----------
    cluster:
        The :class:`ServiceCluster` to watch.  The oracle only reads
        cluster state; it never mutates it.
    enabled:
        Mirrors the ``verify_params["enabled"]`` config knob.  When
        false the constructor does nothing and :func:`install` does not
        install it (``cluster.oracle`` stays ``None``).
    check_interval:
        Run the full state scan every N executed events (per-event work
        is just the clock-monotonicity check).
    """

    def __init__(
        self,
        cluster: "ServiceCluster",
        enabled: bool = True,
        check_interval: int = 16,
    ):
        self.cluster = cluster
        self.enabled = bool(enabled)
        self.check_interval = int(check_interval)
        if self.check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {check_interval}")
        self.events_seen = 0
        self.scans_run = 0
        self._last_time = _NEG_INF
        self._last_seq = -1
        self._arrived: set[int] = set()
        #: request index -> "completed" | "failed"
        self._terminal: dict[int, str] = {}
        self._arrived_per_client: Counter = Counter()
        self._terminal_per_client: Counter = Counter()
        #: server id -> (open_until, opens, scan time) from the last scan
        self._breaker_snapshots: dict[int, tuple[float, int, float]] = {}
        if self.enabled:
            self._chain_trace()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _chain_trace(self) -> None:
        """Hook ``sim.trace`` without clobbering an existing hook."""
        sim = self.cluster.sim
        previous = sim.trace
        if previous is None:
            sim.trace = self._on_event
        else:

            def chained(now: float, handle: "EventHandle", _prev=previous) -> None:
                _prev(now, handle)
                self._on_event(now, handle)

            sim.trace = chained

    def _fail(self, message: str) -> None:
        raise InvariantViolation(f"[t={self.cluster.sim.now:.9f}] {message}")

    # ------------------------------------------------------------------
    # per-event hook (clock legality + periodic scans)
    # ------------------------------------------------------------------

    def _on_event(self, now: float, handle: "EventHandle") -> None:
        if now < self._last_time:
            self._fail(
                f"clock: time ran backwards ({self._last_time:.9f} -> {now:.9f})"
            )
        if now == self._last_time and handle.seq <= self._last_seq:
            self._fail(
                f"clock: tie-break order violated at t={now:.9f} "
                f"(seq {self._last_seq} then {handle.seq})"
            )
        if handle.cancelled:
            self._fail(f"clock: cancelled event executed (seq {handle.seq})")
        self._last_time = now
        self._last_seq = handle.seq
        self.events_seen += 1
        if self.events_seen % self.check_interval == 0:
            self.full_scan()

    # ------------------------------------------------------------------
    # lifecycle hooks (subscribers of system.py's lifecycle points)
    # ------------------------------------------------------------------

    def on_arrival(self, request: "Request") -> None:
        if request.index in self._arrived:
            self._fail(f"conservation: request {request.index} arrived twice")
        self._arrived.add(request.index)
        self._arrived_per_client[request.client_id] += 1

    def on_dispatch(self, client, request: "Request", server_id: int) -> None:
        if not 0 <= server_id < self.cluster.n_servers:
            self._fail(
                f"dispatch: request {request.index} sent to out-of-range "
                f"server {server_id}"
            )
        if request.index not in self._arrived:
            self._fail(f"dispatch: request {request.index} dispatched before arrival")
        outcome = self._terminal.get(request.index)
        if outcome is not None:
            self._fail(
                f"exactly-once: request {request.index} dispatched after "
                f"terminal outcome ({outcome})"
            )

    def on_terminal(self, request: "Request", winner: Optional["Request"]) -> None:
        failed = winner is None
        previous = self._terminal.get(request.index)
        if previous is not None:
            self._fail(
                f"exactly-once: request {request.index} recorded a second "
                f"terminal outcome ({previous} then "
                f"{'failed' if failed else 'completed'})"
            )
        if request.index not in self._arrived:
            self._fail(
                f"conservation: request {request.index} terminated without arriving"
            )
        if not request.done:
            self._fail(
                f"exactly-once: request {request.index} reached a terminal "
                f"outcome with done=False"
            )
        if failed and not request.failed:
            self._fail(
                f"exactly-once: request {request.index} failed terminally "
                f"but failed flag is unset"
            )
        if not failed and not math.isfinite(request.response_time):
            self._fail(
                f"conservation: request {request.index} completed with "
                f"non-finite response time {request.response_time!r}"
            )
        self._terminal[request.index] = "failed" if failed else "completed"
        self._terminal_per_client[request.client_id] += 1

    def on_run_end(self) -> None:
        """End-of-run conservation: arrived == completed + failed == n."""
        self.full_scan()
        cluster = self.cluster
        n = cluster.n_requests
        if len(self._arrived) != n:
            self._fail(
                f"conservation: {len(self._arrived)} arrivals recorded for "
                f"{n} requests"
            )
        if len(self._terminal) != n:
            self._fail(
                f"conservation: {len(self._terminal)} terminal outcomes for "
                f"{n} arrivals"
            )
        failed_seen = sum(1 for v in self._terminal.values() if v == "failed")
        failed_metric = int(cluster.metrics.failed.sum())
        if failed_seen != failed_metric:
            self._fail(
                f"conservation: oracle saw {failed_seen} failures but "
                f"metrics recorded {failed_metric}"
            )
        for client_id, arrived in self._arrived_per_client.items():
            done = self._terminal_per_client.get(client_id, 0)
            if arrived != done:
                self._fail(
                    f"conservation: client {client_id} arrived {arrived} "
                    f"requests but only {done} reached a terminal outcome"
                )
        # Per-server conservation: any copy still parked at a server must
        # belong to a terminally-resolved request (done losers may legally
        # sit in queues — see DESIGN.md §17 — but a *live* one would be a
        # lost request).
        for server in cluster.servers:
            for request in self._live_copies(server):
                if request.index not in self._terminal:
                    self._fail(
                        f"conservation: request {request.index} still parked "
                        f"at server {server.node_id} after run end"
                    )

    # ------------------------------------------------------------------
    # full state scan
    # ------------------------------------------------------------------

    @staticmethod
    def _live_copies(server) -> list:
        return list(server.queue) + list(server.in_service.values())

    def full_scan(self) -> None:
        """Scan every enabled subsystem for state-machine legality."""
        self.scans_run += 1
        cluster = self.cluster
        now = cluster.sim.now
        self._scan_servers(cluster)
        self._scan_publishers(cluster)
        self._scan_overload(cluster)
        self._scan_breakers(cluster, now)
        self._scan_dispatchers(cluster)
        self._scan_autoscaler(cluster)
        self._scan_policy(cluster)
        self._scan_timeouts(cluster)
        if cluster._completed != len(self._terminal):
            self._fail(
                f"conservation: cluster counted {cluster._completed} resolved "
                f"requests but the oracle recorded {len(self._terminal)}"
            )

    def _scan_servers(self, cluster: "ServiceCluster") -> None:
        plain = cluster.reliability is None
        seen: dict[int, int] = {}
        for server in cluster.servers:
            if len(server.in_service) > server.workers:
                self._fail(
                    f"server: node {server.node_id} has "
                    f"{len(server.in_service)} requests in service for "
                    f"{server.workers} workers"
                )
            live = self._live_copies(server)
            if not server.alive and live:
                self._fail(
                    f"server: dead node {server.node_id} still holds "
                    f"{len(live)} requests (crash must drain synchronously)"
                )
            for request in live:
                if request.queued_at != server.node_id:
                    self._fail(
                        f"server: request {request.index} resides at node "
                        f"{server.node_id} but queued_at={request.queued_at}"
                    )
                if plain:
                    # Without hedging there is a single Request object per
                    # index, so one index can never be live at two servers.
                    other = seen.get(request.index)
                    if other is not None:
                        self._fail(
                            f"server: request {request.index} live at both "
                            f"node {other} and node {server.node_id} "
                            f"without reliability enabled"
                        )
                    seen[request.index] = server.node_id

    def _scan_publishers(self, cluster: "ServiceCluster") -> None:
        if not cluster.availability_enabled:
            return
        for node_id, publisher in cluster.publishers.items():
            if publisher.running and not cluster.should_publish(node_id):
                self._fail(
                    f"soft-state: server {node_id} is publishing while "
                    f"dead/withdrawn/parked (phantom republish)"
                )

    def _scan_overload(self, cluster: "ServiceCluster") -> None:
        if cluster.overload is None:
            return
        for server in cluster.servers:
            controller = server.overload
            if controller is None:
                continue
            if controller.withdrawn and not controller.shedding:
                self._fail(
                    f"admission: server {server.node_id} withdrawn while "
                    f"not shedding"
                )
            if controller.shedding and controller._above_since is None:
                self._fail(
                    f"admission: server {server.node_id} shedding without "
                    f"an over-target onset timestamp"
                )

    def _scan_breakers(self, cluster: "ServiceCluster", now: float) -> None:
        reliability = cluster.reliability
        if reliability is None or not reliability.breakers:
            return
        for server_id, breaker in reliability.breakers.items():
            if not 0 <= breaker.failures <= breaker.threshold:
                self._fail(
                    f"breaker: server {server_id} failure count "
                    f"{breaker.failures} outside [0, {breaker.threshold}]"
                )
            snapshot = self._breaker_snapshots.get(server_id)
            if snapshot is not None:
                prev_open_until, prev_opens, prev_time = snapshot
                if breaker.opens < prev_opens:
                    self._fail(
                        f"breaker: server {server_id} open count decreased "
                        f"({prev_opens} -> {breaker.opens})"
                    )
                tripped = (
                    breaker._open_until != prev_open_until
                    and breaker._open_until != _NEG_INF
                )
                if tripped:
                    if breaker.opens <= prev_opens:
                        self._fail(
                            f"breaker: server {server_id} cooldown horizon "
                            f"moved without a recorded open (closed -> "
                            f"half-open shortcut)"
                        )
                    # The trip happened at some t in [prev_time, now], so
                    # the new horizon must honour the full cooldown from no
                    # earlier than the previous scan (tolerance for float
                    # addition rounding).
                    floor = prev_time + breaker.cooldown - 1e-9
                    if breaker._open_until < floor:
                        self._fail(
                            f"breaker: server {server_id} re-opened with a "
                            f"truncated cooldown (open_until="
                            f"{breaker._open_until:.9f} < {floor:.9f})"
                        )
            self._breaker_snapshots[server_id] = (
                breaker._open_until,
                breaker.opens,
                now,
            )

    def _scan_dispatchers(self, cluster: "ServiceCluster") -> None:
        tier = cluster.dispatchers
        if tier is None:
            return
        index_counts = Counter(tier._inflight_index.values())
        total = 0
        for dispatcher in tier.dispatchers:
            if dispatcher.inflight < 0:
                self._fail(
                    f"dispatcher: #{dispatcher.index} in-flight count is "
                    f"negative ({dispatcher.inflight})"
                )
            expected = index_counts.get(dispatcher.index, 0)
            if dispatcher.inflight != expected:
                self._fail(
                    f"dispatcher: #{dispatcher.index} counts "
                    f"{dispatcher.inflight} in flight but the index holds "
                    f"{expected}"
                )
            total += dispatcher.inflight
        if total != len(tier._inflight_index):
            self._fail(
                f"dispatcher: tier counts {total} in flight but the index "
                f"holds {len(tier._inflight_index)}"
            )

    def _scan_autoscaler(self, cluster: "ServiceCluster") -> None:
        scaler = cluster.autoscaler
        if scaler is None:
            return
        n_active = scaler.n_active
        if not scaler.min_servers <= n_active <= scaler.max_servers:
            self._fail(
                f"autoscaler: {n_active} active servers outside "
                f"[{scaler.min_servers}, {scaler.max_servers}]"
            )
        for node_id in scaler._active:
            if not 0 <= node_id < cluster.n_servers:
                self._fail(
                    f"autoscaler: active set contains out-of-range node "
                    f"{node_id}"
                )
            if scaler.is_active(node_id) is not True:
                self._fail(
                    f"autoscaler: is_active({node_id}) disagrees with the "
                    f"active set"
                )

    def _scan_policy(self, cluster: "ServiceCluster") -> None:
        # Policies that keep their own in-flight ledgers can expose a
        # `verify_scan() -> Optional[str]` hook; additionally the oracle
        # knows the least-connections counter contract directly so the
        # non-negativity check works even against older policy code.
        scan = getattr(cluster.policy, "verify_scan", None)
        if scan is not None:
            problem = scan()
            if problem:
                self._fail(f"policy: {problem}")
        ctx = getattr(cluster.policy, "ctx", None)
        agents = ctx.selector_agents if ctx is not None else ()
        for agent in agents:
            counts = agent.state.get("least_connections.counts")
            if counts is None or not len(counts):
                continue
            if int(counts.min()) < 0:
                self._fail(
                    f"policy: least_connections counter went negative on "
                    f"selector {agent.node_id} (min={int(counts.min())})"
                )

    def _scan_timeouts(self, cluster: "ServiceCluster") -> None:
        for index, handle in cluster._timeout_handles.items():
            if handle.cancelled:
                self._fail(
                    f"timeout: request {index} holds a cancelled timeout handle"
                )
            if index not in self._arrived:
                self._fail(f"timeout: armed for never-arrived request {index}")
            outcome = self._terminal.get(index)
            if outcome is not None:
                self._fail(
                    f"timeout: still armed for request {index} after its "
                    f"terminal outcome ({outcome})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InvariantOracle enabled={self.enabled} "
            f"events={self.events_seen} scans={self.scans_run}>"
        )


def install(cluster: "ServiceCluster", **knobs) -> None:
    """Install an :class:`InvariantOracle` of ``knobs`` as ``cluster.oracle``
    (``enabled=False`` installs nothing)."""
    oracle = InvariantOracle(cluster, **knobs)
    if oracle.enabled:
        cluster.install("oracle", oracle)

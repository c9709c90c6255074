"""``LiveCluster`` — the client/drive agent of the live runtime.

This is the wall-clock transport of
:class:`~repro.cluster.system.RequestLifecycle` — the very request
lifecycle and policy-context surface
:class:`~repro.cluster.system.ServiceCluster` runs (arrival → select →
dispatch → response / reject / timeout → retry → terminal record,
every stale-delivery guard included), so registry policies, the
:class:`~repro.cluster.reliability.ReliabilityEngine`, the
:class:`~repro.cluster.availability.ServiceMappingTable`,
:class:`~repro.cluster.metrics.ClusterMetrics`, and the
:class:`~repro.telemetry.collector.TelemetryCollector` all run
**unmodified**. What lives here is only what differs: construction,
time from a :class:`~repro.live.clock.WallClock`, REQUEST/POLL leaving
and RESPONSE/REJECT/PUBLISH/POLL_REPLY arriving as real UDP datagrams
(unpacked before the shared handlers run), and :meth:`LiveCluster.run`
driving the clock's loop until every request is terminal. The
race-parity tests assert the sim's exactly-once invariants under
injected loss/delay/duplication.

Deliberate divergences from the sim (documented in DESIGN.md §15):

- hedged requests are not supported live (the hedge path reaches into
  simulated delivery internals); reliability's ``install`` refuses a
  hedge-enabled policy here; there is no dispatcher tier or autoscaler;
- overload/admission state lives in the *server* process; the client
  sees only REJECT NACKs (so ``overload`` stays ``None`` here and
  rejection counters are per-server);
- network accounting counts datagrams as seen at the client socket
  (sends for REQUEST/POLL, receipts for the rest).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster.availability import ServiceMappingTable, soft_state_members
from repro.cluster.client import ClientNode
from repro.cluster.request import Request
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.system import RequestLifecycle
from repro.core.base import LoadBalancer
from repro.live.clock import WallClock, sendto
from repro.live.faults import LoopbackFaults
from repro.live.wire import WireError, decode_message, encode_message
from repro.net.latency import PAPER_NET
from repro.net.message import MessageKind
from repro.sim.rng import RngHub

__all__ = ["LiveCluster", "LiveServerProxy"]

_WIRE_KIND_TO_SIM = {
    "request": MessageKind.REQUEST,
    "response": MessageKind.RESPONSE,
    "reject": MessageKind.REJECT,
    "poll": MessageKind.POLL,
    "poll_reply": MessageKind.POLL_REPLY,
    "publish": MessageKind.PUBLISH,
}


class LiveServerProxy:
    """Client-side view of a remote server (the ``ctx.servers`` surface).

    ``queue_recorder`` is populated from POLL replies when telemetry is
    on — the live series are *observed* queue lengths, not the server's
    ground truth (which lives in another bookkeeping domain).
    """

    __slots__ = ("node_id", "addr", "speed", "workers", "queue_recorder")

    def __init__(self, node_id: int, addr: Tuple[str, int], workers: int = 1):
        self.node_id = node_id
        self.addr = addr
        self.speed = 1.0
        self.workers = workers
        self.queue_recorder = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveServerProxy {self.node_id} @ {self.addr}>"


class _LiveNetwork:
    """Datagram accounting with the ``Network`` stats surface the
    telemetry collector and sampler expect."""

    __slots__ = ("message_counts", "byte_counts", "dropped_counts",
                 "inflight_recorder", "drops_recorder")

    def __init__(self) -> None:
        self.message_counts: Dict[MessageKind, int] = {}
        self.byte_counts: Dict[MessageKind, int] = {}
        self.dropped_counts: Dict[MessageKind, int] = {}
        self.inflight_recorder = None
        self.drops_recorder = None

    def count(self, wire_kind: str, n_bytes: int) -> None:
        kind = _WIRE_KIND_TO_SIM.get(wire_kind)
        if kind is None:
            return
        self.message_counts[kind] = self.message_counts.get(kind, 0) + 1
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + n_bytes


class _PublishShim:
    """Duck-typed ``Message`` for ``ServiceMappingTable._on_publish``."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any):
        self.payload = payload


class LiveCluster(RequestLifecycle):
    """Drives a workload against live UDP servers: the shared
    :class:`~repro.cluster.system.RequestLifecycle` over real datagrams."""

    def __init__(
        self,
        server_addrs: Dict[int, Tuple[str, int]],
        policy: LoadBalancer,
        clock: WallClock,
        *,
        seed: int = 0,
        n_clients: int = 6,
        request_timeout: Optional[float] = None,
        max_retries: int = 5,
        availability: bool = False,
        availability_ttl: float = 3.0,
        workers_per_server: int = 1,
        faults: Optional[LoopbackFaults] = None,
    ) -> None:
        if not server_addrs:
            raise ValueError("server_addrs must not be empty")
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        # The Clock seam: ``sim`` IS the wall clock. The lifecycle,
        # policy, reliability, and soft-state code consult
        # ``ctx.sim.now``/``after`` exactly as they do in simulation.
        self.sim = clock
        self.clock = clock
        self.rng_hub = RngHub(seed)
        self.constants = PAPER_NET
        self.overhead = None
        self.faults = faults

        ids = sorted(server_addrs)
        self.n_servers = len(ids)
        self.n_clients = n_clients
        self.servers = [
            LiveServerProxy(i, server_addrs[i], workers=workers_per_server) for i in ids
        ]
        self._addr_by_id = {proxy.node_id: proxy.addr for proxy in self.servers}
        self._static_members = ids
        # Client node ids continue after server ids (sim convention).
        base = max(ids) + 1
        self.clients = [ClientNode(clock, base + j) for j in range(n_clients)]

        self.network = _LiveNetwork()
        self.sock = None  # opened by run()

        # Availability: one shared soft-state table (all clients share
        # the drive socket, hence one subscription).
        self.availability_enabled = availability
        self.mapping_tables: Dict[int, ServiceMappingTable] = {}
        self._shared_table: Optional[ServiceMappingTable] = None
        if availability:
            table = ServiceMappingTable(clock, ttl=availability_ttl)
            self._shared_table = table
            for client in self.clients:
                self.mapping_tables[client.node_id] = table
            self._members = soft_state_members(self.mapping_tables)

        # Transport state: dispatched requests by wire id, outstanding
        # polls by poll id, the run-complete flag, wire-level counters.
        self._requests: Dict[int, Request] = {}
        self._polls: Dict[int, Tuple[int, Callable[[int, int, float], None], float]] = {}
        self._next_poll_id = 0
        self._done = False
        self.stale_poll_replies_ignored = 0
        self.wire_errors = 0
        self.recv_errors = 0

        self._init_lifecycle(policy, request_timeout, max_retries)

    # ------------------------------------------------------------------
    # socket plumbing
    # ------------------------------------------------------------------
    def _send(self, wire_kind: str, data: bytes, addr: Tuple[str, int]) -> None:
        self.network.count(wire_kind, len(data))
        if self.faults is None:
            self._sendto((wire_kind, data, addr))
        else:
            self.faults.deliver(self.clock, self._sendto, (wire_kind, data, addr))

    def _sendto(self, item: Tuple[str, bytes, Tuple[str, int]]) -> None:
        wire_kind, data, addr = item
        if not sendto(self.sock, data, addr):
            kind = _WIRE_KIND_TO_SIM.get(wire_kind, MessageKind.OTHER)
            drops = self.network.dropped_counts
            drops[kind] = drops.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # transport hooks: outbound
    # ------------------------------------------------------------------
    def poll_server(
        self,
        client: ClientNode,
        server_id: int,
        on_reply: Callable[[int, int, float], None],
    ) -> None:
        """Send a real POLL datagram; the reply carries the server's
        queue length and its read time (shared wall clock)."""
        self._next_poll_id += 1
        pid = self._next_poll_id
        self._polls[pid] = (server_id, on_reply, self.clock.now)
        self._send("poll", encode_message("poll", pid=pid), self._addr_by_id[server_id])

    def _send_request(self, client: ClientNode, request: Request, server_id: int) -> None:
        self._requests[request.index] = request
        data = encode_message(
            "request",
            id=request.index,
            attempt=request.retries,
            client=client.node_id,
            service=request.service_time,
        )
        self._send("request", data, self._addr_by_id[server_id])

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------
    def run(self, time_limit: float) -> ClusterMetrics:
        """Open the client socket and drive the loaded workload to
        completion on the clock's loop; returns the metrics.

        Past ``time_limit`` seconds the loop raises ``TimeoutError`` — a
        live run must never hang the suite. The socket stays open for
        late datagrams until the clock is closed.
        """
        if self._arrival_times is None or self.metrics is None:
            raise RuntimeError("load_workload() must be called before run()")
        self.sock = self.clock.open_udp(self)
        if self.availability_enabled:
            sub = encode_message("subscribe", client=self.clients[0].node_id)
            for proxy in self.servers:
                self._sendto(("subscribe", sub, proxy.addr))
        self._done = False
        self._t0 = self.clock.now
        self.clock.at(self._t0 + float(self._arrival_times[0]), self._on_arrival, 0)
        self.clock.run_until(lambda: self._done, time_limit)
        return self.metrics

    def _all_resolved(self) -> None:
        self._done = True

    # ------------------------------------------------------------------
    # transport hooks: inbound (unpack, then the shared handler)
    # ------------------------------------------------------------------
    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        try:
            msg = decode_message(data)
        except WireError:
            self.wire_errors += 1
            return
        kind = msg["k"]
        if kind != "request":  # client never *receives* requests
            self.network.count(kind, len(data))
        if kind == "poll_reply":
            self._recv_poll_reply(msg)
        elif kind == "response":
            self._recv_response(msg)
        elif kind == "reject":
            self._recv_reject(msg)
        elif kind == "publish":
            self._recv_publish(msg)

    def _recv_poll_reply(self, msg: Dict[str, Any]) -> None:
        entry = self._polls.pop(msg["pid"], None)
        if entry is None:
            # Duplicated or late reply for a poll already consumed.
            self.stale_poll_replies_ignored += 1
            return
        server_id, on_reply, _sent_at = entry
        queue_length = msg["q"]
        # Shared wall clock across the loopback harness: the server's
        # read time is directly comparable (telemetry staleness).
        observed_at = float(msg["at"])
        proxy = self.servers[self._proxy_index(server_id)]
        recorder = proxy.queue_recorder
        if recorder is not None:
            now = self.clock.now
            times = recorder.breakpoints()[0]
            if times.size == 0 or now >= times[-1]:
                recorder.record(now, float(queue_length))
        on_reply(server_id, queue_length, observed_at)

    def _proxy_index(self, server_id: int) -> int:
        # Server ids are dense from 0 in practice; fall back to scan.
        if server_id < len(self.servers) and self.servers[server_id].node_id == server_id:
            return server_id
        for i, proxy in enumerate(self.servers):
            if proxy.node_id == server_id:
                return i
        raise KeyError(f"unknown server id {server_id}")

    def _recv_response(self, msg: Dict[str, Any]) -> None:
        request = self._requests.get(msg["id"])
        if request is None or request.done:
            # Unknown id, or a duplicated/late RESPONSE for a request
            # already terminal: its recorded stamps must not be rewritten.
            self.stale_responses_ignored += 1
            return
        # The sim's server stamps the shared Request object; over UDP
        # the stamps travel in the datagram.
        request.server_id = msg["server"]
        request.enqueue_time = float(msg["enq"])
        request.start_time = float(msg["start"])
        request.completion_time = float(msg["done"])
        self._on_response(request)

    def _recv_reject(self, msg: Dict[str, Any]) -> None:
        request = self._requests.get(msg["id"])
        if request is None:
            self.stale_rejects_ignored += 1
            return
        attempt, server_id = msg["attempt"], msg["server"]
        if not request.done and request.retries == attempt:
            # The sim's server marks the shared Request object when it
            # rejects; over UDP the mark lands with the (live) NACK.
            request.rejects += 1
            request.last_rejected_by = server_id
        self._on_reject(request, attempt, server_id)

    def _recv_publish(self, msg: Dict[str, Any]) -> None:
        if self._shared_table is None:
            return
        # the decoder checked the types: only its lists become tuples
        entries = tuple(tuple(entry) for entry in msg["entries"])
        payload = (msg["server"], entries, float(msg["at"]))
        self._shared_table._on_publish(_PublishShim(payload))  # noqa: SLF001

    def resilience_counters(self) -> Dict[str, float]:
        out = {
            "request_timeouts_fired": float(self.request_timeouts_fired),
            "stale_responses_ignored": float(self.stale_responses_ignored),
            "stale_rejects_ignored": float(self.stale_rejects_ignored),
            "stale_poll_replies_ignored": float(self.stale_poll_replies_ignored),
            "wire_errors": float(self.wire_errors),
            "recv_errors": float(self.recv_errors),
        }
        if self.reliability is not None:
            out.update(
                {k: float(v) for k, v in self.reliability.counters().items()}
            )
        return out

"""``LiveServer`` — a real UDP server node on a :class:`~repro.live.clock.WallClock`.

One ``LiveServer`` is the live counterpart of the sim's ``ServerNode``
plus its slice of ``ServiceCluster._deliver_request``: a FIFO queue
served ``workers`` at a time from clock callbacks, service work as a
real CPU spin (``prototype.microbench``) in ``call_soon`` slices or as
one timer (deterministic tests), admission control through the
**same** :class:`~repro.cluster.overload.OverloadController` as the
simulator, and soft-state availability announcements through the
**same** :class:`~repro.cluster.availability.ServicePublisher` — both
running against a :class:`~repro.live.clock.WallClock`.

At-most-once semantics over a lossy transport follow the classic
reply-cache design: a REQUEST whose ``(id, attempt)`` was already
served is answered from the cache without re-executing the service
(``duplicates_ignored``); a request id currently queued is dropped
(at most one live copy per server, mirroring the sim's ``queued_at``
guard). POLL handling optionally burns ``poll_spin`` seconds of real
CPU — the §4.1 polling-overhead source that makes poll size 8 degrade
on real hardware.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.cluster.availability import ServicePublisher
from repro.cluster.overload import OverloadController, OverloadPolicy
from repro.cluster.availability import DEFAULT_SERVICE
from repro.live.clock import WallClock, WallHandle, sendto
from repro.live.faults import LoopbackFaults
from repro.live.wire import WireError, decode_message, encode_message
from repro.prototype.microbench import SpinCalibration, calibrate_spin, spin_for

__all__ = ["LiveServer"]

#: spin-mode service work yields to the event loop after every slice of
#: this many seconds, so datagrams (polls) interleave with it
SLICE_SECONDS = 0.001

_Item = Tuple[Dict[str, Any], Tuple[str, int]]  # a decoded REQUEST and its sender


class _ServiceStamp:
    """Duck-typed stand-in for ``Request`` in ``observe_completion``
    (the controller's EWMA reads only ``start_time``)."""

    __slots__ = ("start_time",)

    def __init__(self, start_time: float):
        self.start_time = start_time


class _WirePublishChannel:
    """Duck-typed ``AvailabilityChannel`` for :class:`ServicePublisher`:
    ``publish`` fans PUBLISH datagrams out to subscribed client addrs."""

    __slots__ = ("server",)

    def __init__(self, server: "LiveServer"):
        self.server = server

    def publish(self, src: int, payload: Any) -> int:
        node_id, entries, published_at = payload
        data = encode_message(
            "publish", server=node_id, entries=[list(e) for e in entries], at=published_at
        )
        for addr in list(self.server.subscribers):
            self.server.send_datagram(data, addr)
        return len(self.server.subscribers)


class LiveServer:
    """A UDP service node (the Neptune prototype's server side): its socket
    is open on ``127.0.0.1:port`` from construction to :meth:`close`."""

    def __init__(
        self,
        node_id: int,
        clock: WallClock,
        *,
        port: int = 0,
        workers: int = 1,
        mode: str = "sleep",
        calibration: Optional[SpinCalibration] = None,
        poll_spin: float = 0.0,
        max_queue: Optional[int] = None,
        overload: Optional[OverloadPolicy] = None,
        publish_interval: Optional[float] = None,
        entries: Iterable[Tuple[str, int]] = ((DEFAULT_SERVICE, 0),),
        rng: Optional[np.random.Generator] = None,
        faults: Optional[LoopbackFaults] = None,
    ) -> None:
        if mode not in ("sleep", "spin"):
            raise ValueError(f"mode must be 'sleep' or 'spin', got {mode!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.node_id = node_id
        self.clock = clock
        self.workers = workers
        self.mode = mode
        self.poll_spin = poll_spin
        self.max_queue = max_queue
        self.faults = faults
        self._rng = rng if rng is not None else np.random.default_rng(node_id)
        self._calibration = calibration
        if mode == "spin" or poll_spin > 0.0:
            # Calibrate once, up front, so service work never includes a
            # calibration transient.
            if self._calibration is None:
                self._calibration = calibrate_spin(0.02)

        self.alive = True
        self._waiting: Deque[_Item] = deque()
        self._queued_ids: Set[int] = set()
        # In service: request id -> the timer that moves it on next.
        self._in_service: Dict[int, WallHandle] = {}
        # Reply cache: request id -> (attempt, encoded RESPONSE datagram).
        self._served: Dict[int, Tuple[int, bytes]] = {}

        # Availability: shared ServicePublisher over a wire-backed channel.
        self.subscribers: Set[Tuple[str, int]] = set()
        self.publisher: Optional[ServicePublisher] = None
        if publish_interval is not None:
            self.publisher = ServicePublisher(
                self.clock,  # the Clock seam: wall clock instead of the sim
                _WirePublishChannel(self),
                node_id,
                entries=entries,
                mean_interval=publish_interval,
                rng=self._rng,
            )

        # Overload control: the simulator's controller, on wall time.
        self.overload: Optional[OverloadController] = None
        if overload is not None and overload.enabled:
            self.overload = OverloadController(
                overload, self.clock, workers=workers, rng=self._rng
            )
            if self.publisher is not None and overload.withdraw_after is not None:
                self.overload.on_withdraw = self.publisher.stop
                self.overload.on_rejoin = self._rejoin

        # Counters (mirroring ServerNode / ServiceCluster names).
        self.completed_count = 0
        self.rejected_count = 0
        self.rejects_sent = 0
        self.duplicates_ignored = 0
        self.polls_served = 0
        self.wire_errors = 0
        self.recv_errors = 0
        self.send_drops = 0
        self.poll_spin_total = 0.0

        # Last, so nothing above can fail with the socket open.
        self.sock = clock.open_udp(self, port)
        self.address: Tuple[str, int] = self.sock.getsockname()
        if self.publisher is not None:
            self.publisher.start()

    # ------------------------------------------------------------------
    # socket plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop serving: drop all work, stop publishing, close the socket.

        Used both for orderly shutdown and to simulate a crash in the
        race-parity tests (in-flight requests die with the node).
        """
        self.alive = False
        if self.publisher is not None:
            self.publisher.stop()
        for timer in self._in_service.values():
            timer.cancel()
        self._in_service.clear()
        self._waiting.clear()
        self.clock.close_socket(self.sock)

    def send_datagram(self, data: bytes, addr: Tuple[str, int]) -> None:
        """Send through the (optional) fault plan — the live counterpart
        of the sim chaos layer's send-time gate."""
        if self.faults is None:
            self._sendto((data, addr))
        else:
            self.faults.deliver(self.clock, self._sendto, (data, addr))

    def _sendto(self, item: Tuple[bytes, Tuple[str, int]]) -> None:
        if self.alive and not sendto(self.sock, *item):
            self.send_drops += 1

    # ------------------------------------------------------------------
    # datagram handling
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Queued + in-service, the load metric POLL replies report
        (same semantics as ``ServerNode.queue_length``)."""
        return len(self._waiting) + len(self._in_service)

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        if not self.alive:
            return
        try:
            msg = decode_message(data)
        except WireError:
            self.wire_errors += 1
            return
        kind = msg["k"]
        if kind == "poll":
            self._on_poll(msg, addr)
        elif kind == "request":
            self._on_request(msg, addr)
        elif kind == "subscribe":
            self._on_subscribe(msg, addr)
        # Anything else (response/reject/poll_reply) is not for servers.

    def _on_poll(self, msg: Dict[str, Any], addr: Tuple[str, int]) -> None:
        self.polls_served += 1
        if self.poll_spin > 0.0:
            # Real CPU charged to poll handling — §4.1's server-side
            # overhead source, and the reason poll size 8 degrades.
            assert self._calibration is not None
            spin_for(self.poll_spin, self._calibration)
            self.poll_spin_total += self.poll_spin
        reply = encode_message(
            "poll_reply",
            pid=msg["pid"],
            server=self.node_id,
            q=self.queue_length,
            at=self.clock.now,
        )
        self.send_datagram(reply, addr)

    def _on_subscribe(self, msg: Dict[str, Any], addr: Tuple[str, int]) -> None:
        self.subscribers.add(addr)
        if self.publisher is not None and self.publisher.running:
            # Answer the new subscriber immediately so it need not wait
            # out a refresh interval (mirrors the sim's table priming).
            data = encode_message(
                "publish",
                server=self.node_id,
                entries=[list(e) for e in self.publisher.entries],
                at=self.clock.now,
            )
            self.send_datagram(data, addr)

    def _on_request(self, msg: Dict[str, Any], addr: Tuple[str, int]) -> None:
        req_id = msg["id"]
        attempt = msg["attempt"]
        if req_id in self._queued_ids:
            # At most one live copy per server (sim: queued_at guard).
            self.duplicates_ignored += 1
            return
        served = self._served.get(req_id)
        if served is not None and served[0] == attempt:
            # Duplicate of an attempt we already executed: re-send the
            # cached RESPONSE, never re-run the service (at-most-once).
            self.duplicates_ignored += 1
            self.send_datagram(served[1], addr)
            return
        if self.max_queue is not None and self.queue_length >= self.max_queue:
            self._reject(msg, addr)
            return
        if self.overload is not None and not self.overload.admit(self.queue_length):
            self._reject(msg, addr, shed=True)
            return
        self._queued_ids.add(req_id)
        msg["_enq"] = self.clock.now
        self._waiting.append((msg, addr))
        self._pump()

    def _reject(self, msg: Dict[str, Any], addr: Tuple[str, int], shed: bool = False) -> None:
        self.rejected_count += 1
        fast = self.overload.policy.fast_reject if (shed and self.overload) else True
        if fast:
            self.rejects_sent += 1
            nack = encode_message(
                "reject", id=msg["id"], attempt=msg["attempt"], server=self.node_id
            )
            self.send_datagram(nack, addr)

    def _rejoin(self) -> None:
        if self.alive and self.publisher is not None:
            self.publisher.start()

    # ------------------------------------------------------------------
    # service work
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start waiting items while a worker is free."""
        while self._waiting and len(self._in_service) < self.workers:
            item = self._waiting.popleft()
            msg = item[0]
            msg["_start"] = self.clock.now
            if self.mode == "sleep":
                timer = self.clock.after(float(msg["service"]), self._respond, item)
            else:
                msg["_left"] = float(msg["service"])
                timer = self.clock.call_soon(self._spin, item)
            self._in_service[msg["id"]] = timer

    def _spin(self, item: _Item) -> None:
        """One slice of real CPU spin, then back to the loop — datagrams
        (polls!) are handled between slices, so their replies contend
        with service work exactly as on the paper's hardware."""
        msg = item[0]
        if msg["_left"] <= 0.0:
            self._respond(item)
            return
        assert self._calibration is not None
        chunk = min(SLICE_SECONDS, msg["_left"])
        spin_for(chunk, self._calibration)
        msg["_left"] -= chunk
        self._in_service[msg["id"]] = self.clock.call_soon(self._spin, item)

    def _respond(self, item: _Item) -> None:
        msg, addr = item
        start = msg["_start"]
        response = encode_message(
            "response",
            id=msg["id"],
            attempt=msg["attempt"],
            server=self.node_id,
            enq=msg["_enq"],
            start=start,
            done=self.clock.now,
        )
        self.completed_count += 1
        self._served[msg["id"]] = (msg["attempt"], response)
        if len(self._served) > 4096:
            # Trim the reply cache FIFO-ish (insertion ordered dict).
            for key in list(self._served)[:1024]:
                del self._served[key]
        if self.overload is not None:
            # Still counts the completing item (ServerNode has let it go).
            self.overload.observe_completion(_ServiceStamp(start), self.queue_length)
        self.send_datagram(response, addr)
        del self._in_service[msg["id"]]
        self._queued_ids.discard(msg["id"])
        self._pump()

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "completed": float(self.completed_count),
            "rejected": float(self.rejected_count),
            "rejects_sent": float(self.rejects_sent),
            "duplicates_ignored": float(self.duplicates_ignored),
            "polls_served": float(self.polls_served),
            "wire_errors": float(self.wire_errors),
            "recv_errors": float(self.recv_errors),
            "send_drops": float(self.send_drops),
            "poll_spin_total": self.poll_spin_total,
        }
        if self.overload is not None:
            out.update({k: float(v) for k, v in self.overload.counters().items()})
        return out

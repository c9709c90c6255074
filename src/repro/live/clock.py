"""Wall-clock :class:`~repro.sim.clock.Clock`, and the live runtime's one loop.

``WallClock`` duck-types the scheduling surface of
:class:`~repro.sim.engine.Simulator` (``now``/``at``/``after``/
``call_soon``/``cancel``) so every cluster component runs unmodified
against real time. ``now`` is ``time.monotonic() - origin``, starting
near ``0.0`` by default; components must not rely on that (the seam
tests drive them with offset origins).

It is also the loop every live entry point runs on, over the UDP
sockets it opens: one ``select(2)`` per wake-up, because epoll rounds
every wait up to a whole millisecond (a 5 ms service timer fired up to
1 ms late) where ``select`` takes microseconds. ``select`` cannot watch
a file descriptor >= 1024, so :meth:`WallClock.open_udp` refuses one.
"""

from __future__ import annotations

import select
import socket
from collections import deque
from heapq import heappop, heappush
from itertools import count
from time import monotonic
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["WallClock", "WallHandle", "sendto"]

_SENTINEL = object()
#: ``select(2)`` watches descriptors below FD_SETSIZE only
_FD_SETSIZE = 1024


def sendto(sock: socket.socket, data: bytes, addr: Tuple[str, int]) -> bool:
    """Send one datagram; ``False`` when a full socket buffer or an
    interrupted call dropped it, as UDP may (the caller counts the drop)."""
    try:
        sock.sendto(data, addr)
    except (BlockingIOError, InterruptedError):
        return False
    return True


class WallHandle:
    """A scheduled callback on a :class:`WallClock`, with the readable
    surface of :class:`~repro.sim.engine.EventHandle` (``time``,
    ``cancelled``, ``cancel()``)."""

    __slots__ = ("time", "cancelled", "fn", "args")

    def __init__(self, time: float, fn: Callable[..., Any], arg: Any):
        self.time = time
        self.cancelled = False
        self.fn = fn
        self.args = () if arg is _SENTINEL else (arg,)

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<WallHandle t={self.time:.6f} {state}>"


class WallClock:
    """Monotonic wall-clock time, timers and UDP sockets on one ``select`` loop."""

    def __init__(self, origin: Optional[float] = None) -> None:
        # Default origin = "now", so clock readings start near 0.0 and
        # exported telemetry timestamps are human-readable offsets.
        self._origin = monotonic() if origin is None else float(origin)
        self._timers: List[Tuple[float, int, WallHandle]] = []
        self._seq = count()
        self._ready: Deque[WallHandle] = deque()
        #: open socket -> the endpoint its datagrams go to
        self._endpoints: Dict[socket.socket, Any] = {}

    @property
    def now(self) -> float:
        return monotonic() - self._origin

    def at(self, time: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> WallHandle:
        """Schedule ``fn`` at absolute clock time ``time`` (clamped to now)."""
        handle = WallHandle(time, fn, arg)
        heappush(self._timers, (max(time, self.now), next(self._seq), handle))
        return handle

    def after(self, delay: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> WallHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.at(self.now + delay, fn, arg)

    def call_soon(self, fn: Callable[..., Any], arg: Any = _SENTINEL) -> WallHandle:
        handle = WallHandle(self.now, fn, arg)
        self._ready.append(handle)
        return handle

    def cancel(self, handle: Optional[WallHandle]) -> None:
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # sockets and the loop
    # ------------------------------------------------------------------
    def open_udp(self, endpoint: Any, port: int = 0) -> socket.socket:
        """A non-blocking UDP socket on ``127.0.0.1:port`` whose datagrams
        go to ``endpoint.datagram_received(data, addr)``; an ``OSError``
        reading it, but for a spurious wake-up, counts in
        ``endpoint.recv_errors``."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            if sock.fileno() >= _FD_SETSIZE:
                raise ValueError(f"socket fd {sock.fileno()} >= {_FD_SETSIZE}: the live "
                                 f"loop's select() watches descriptors below {_FD_SETSIZE} only")
            sock.setblocking(False)
            sock.bind(("127.0.0.1", port))
        except BaseException:
            sock.close()
            raise
        self._endpoints[sock] = endpoint
        return sock

    def close_socket(self, sock: socket.socket) -> None:
        """Stop reading ``sock`` and close it (idempotent)."""
        self._endpoints.pop(sock, None)
        sock.close()

    def close(self) -> None:
        """Close every socket this clock opened."""
        for sock in list(self._endpoints):
            self.close_socket(sock)

    def run_until(self, done: Callable[[], bool], time_limit: float) -> None:
        """Run the loop until ``done()`` is true.

        Each wake-up is one ``select`` over the open sockets, waiting at
        most until the next timer. Then, in asyncio's ``_run_once``
        order, one datagram from each readable socket goes to its
        endpoint, the due timers fire in ``(time, seq)`` order, and the
        ``call_soon`` FIFO runs what was queued by then; what it queues
        in turn waits for the next wake-up. Past ``time_limit`` seconds
        it closes every socket and raises ``TimeoutError``.
        """
        timers, ready, endpoints, origin = self._timers, self._ready, self._endpoints, self._origin
        deadline = self.now + time_limit
        while not done():
            while timers and timers[0][2].cancelled:
                heappop(timers)
            now = monotonic() - origin
            if now >= deadline:
                self.close()
                raise TimeoutError(f"live run exceeded its time limit of {time_limit:g}s")
            wake = timers[0][0] if timers and timers[0][0] < deadline else deadline
            timeout = 0.0 if ready else max(wake - now, 0.0)
            for sock in select.select(list(endpoints), (), (), timeout)[0]:
                endpoint = endpoints.get(sock)
                if endpoint is None:  # closed by an earlier handler this wake-up
                    continue
                try:
                    data, addr = sock.recvfrom(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    endpoint.recv_errors += 1
                    continue
                endpoint.datagram_received(data, addr)
            now = monotonic() - origin
            while timers and timers[0][0] <= now:
                handle = heappop(timers)[2]
                if not handle.cancelled:
                    handle.fn(*handle.args)
            for _ in range(len(ready)):
                handle = ready.popleft()
                if not handle.cancelled:
                    handle.fn(*handle.args)

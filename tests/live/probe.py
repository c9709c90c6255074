"""Plain-socket helpers for the live tests.

:class:`Probe` is a UDP socket outside the loop under test: it sends
datagrams to a live endpoint and drains what comes back, so a test sees
an endpoint only from the wire. :func:`run_for` lets a loop run for a
stretch of wall time (late datagrams, crashes, timers).
"""

from __future__ import annotations

import socket

from repro.live.wire import decode_message, encode_message


class Probe:
    """A non-blocking UDP socket on 127.0.0.1; ``seen`` holds every
    datagram it received, decoded, in order."""

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        self.sock.bind(("127.0.0.1", 0))
        self.seen: list[dict] = []

    def send(self, addr, kind: str, **fields) -> None:
        self.sock.sendto(encode_message(kind, **fields), addr)

    def received(self, kind: str) -> list[dict]:
        """Drain the socket; every datagram of ``kind`` seen so far."""
        while True:
            try:
                data, _ = self.sock.recvfrom(65536)
            except BlockingIOError:
                break
            self.seen.append(decode_message(data))
        return [msg for msg in self.seen if msg["k"] == kind]

    def wait(self, clock, kind: str, n: int = 1, timeout: float = 5.0) -> list[dict]:
        """Run ``clock``'s loop until ``n`` datagrams of ``kind`` arrived."""
        clock.run_until(lambda: len(self.received(kind)) >= n, timeout)
        return self.received(kind)[:n]


def run_for(clock, seconds: float) -> None:
    """Run ``clock``'s loop for ``seconds`` of wall time."""
    woke = []
    clock.after(seconds, woke.append, True)
    clock.run_until(lambda: woke, seconds + 5.0)

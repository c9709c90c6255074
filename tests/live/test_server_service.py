"""The ``LiveServer`` service path, driven over loopback UDP.

Each test boots one server and a probe socket in one event loop and
checks what a client can see: FIFO order per worker, the load a POLL
reports, what the overload controller is told at completion, that a
sleep-mode service lasts at least its service time, that ``close()``
mid-service answers nothing, and that spin-mode service work leaves
room for POLLs between its slices.
"""

import asyncio

import pytest

from repro.cluster.overload import OverloadPolicy
from repro.live import server as server_module
from repro.live.clock import WallClock
from repro.live.server import LiveServer
from repro.live.wire import decode_message, encode_message
from repro.prototype.microbench import calibrate_spin


class _Probe(asyncio.DatagramProtocol):
    """Client socket: every datagram it receives, decoded, in order."""

    def __init__(self):
        self.inbox: "asyncio.Queue[dict]" = asyncio.Queue()
        self.seen = []

    def datagram_received(self, data, addr):
        msg = decode_message(data)
        self.seen.append(msg)
        self.inbox.put_nowait(msg)


def _drive(body, **server_kwargs):
    """Run ``body(server, probe, send)`` against a fresh loopback server."""

    async def scenario():
        loop = asyncio.get_running_loop()
        server = LiveServer(0, WallClock(loop), **server_kwargs)
        transport, _ = await loop.create_datagram_endpoint(
            lambda: server, local_addr=("127.0.0.1", 0)
        )
        probe_transport, probe = await loop.create_datagram_endpoint(
            _Probe, local_addr=("127.0.0.1", 0)
        )

        def send(kind, **fields):
            probe_transport.sendto(encode_message(kind, **fields), server.address)

        try:
            return await body(server, probe, send)
        finally:
            server.close()
            transport.close()
            probe_transport.close()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=20))


def _request(send, req_id, service):
    send("request", id=req_id, attempt=0, client=9, service=service)


async def _responses(probe, n):
    out = []
    while len(out) < n:
        msg = await asyncio.wait_for(probe.inbox.get(), timeout=5)
        if msg["k"] == "response":
            out.append(msg)
    return out


def test_one_worker_serves_in_arrival_order():
    async def body(server, probe, send):
        for req_id in (1, 2, 3):
            _request(send, req_id, 0.01)
        return await _responses(probe, 3)

    responses = _drive(body, workers=1, mode="sleep")
    assert [r["id"] for r in responses] == [1, 2, 3]
    for before, after in zip(responses, responses[1:]):
        assert after["start"] >= before["done"]


def test_poll_during_service_reports_waiting_plus_in_service():
    async def body(server, probe, send):
        for req_id in (1, 2, 3):
            _request(send, req_id, 0.05)
        await asyncio.sleep(0.01)
        assert server.queue_length == 3
        send("poll", pid=7)
        while True:
            msg = await asyncio.wait_for(probe.inbox.get(), timeout=5)
            if msg["k"] == "poll_reply":
                return msg

    reply = _drive(body, workers=1, mode="sleep")
    assert (reply["pid"], reply["q"]) == (7, 3)


class _RecordingOverload:
    """Stands in for ``OverloadController``: admits everything and records
    the queue length each completion reports."""

    def __init__(self, policy, clock, workers, rng):
        self.completion_queue_lengths = []

    def admit(self, queue_length):
        return True

    def observe_completion(self, request, queue_length):
        self.completion_queue_lengths.append(queue_length)


def test_overload_controller_sees_the_completing_item_still_counted(monkeypatch):
    monkeypatch.setattr(server_module, "OverloadController", _RecordingOverload)

    async def body(server, probe, send):
        _request(send, 1, 0.01)
        _request(send, 2, 0.01)
        await _responses(probe, 2)
        return server.overload.completion_queue_lengths

    # First completion: itself plus the one waiting; second: itself.
    policy = OverloadPolicy(sojourn_target=1.0)
    assert _drive(body, workers=1, mode="sleep", overload=policy) == [2, 1]


def test_sleep_mode_service_lasts_at_least_its_service_time():
    service = 0.005

    async def body(server, probe, send):
        for req_id in range(6):
            _request(send, req_id, service)
        return await _responses(probe, 6)

    for response in _drive(body, workers=2, mode="sleep"):
        # a lower bound only; 1 ns covers the float rounding of two
        # clock reads an origin apart
        assert response["done"] - response["start"] >= service - 1e-9


def test_close_mid_service_sends_nothing_and_caches_nothing():
    async def body(server, probe, send):
        _request(send, 1, 0.05)
        _request(send, 2, 0.05)
        await asyncio.sleep(0.01)
        assert server.queue_length == 2
        server.close()
        await asyncio.sleep(0.08)
        return server

    server = _drive(body, workers=1, mode="sleep")
    assert server.completed_count == 0
    assert server._served == {}


@pytest.fixture(scope="module")
def calibration():
    return calibrate_spin(0.02)


@pytest.mark.parametrize("workers", [1, 2])
def test_spin_mode_answers_a_poll_between_service_slices(workers, calibration):
    async def body(server, probe, send):
        _request(send, 1, 0.02)
        await asyncio.sleep(0.002)
        send("poll", pid=1)
        await _responses(probe, 1)
        return probe.seen

    seen = _drive(body, workers=workers, mode="spin", calibration=calibration)
    assert [m["k"] for m in seen] == ["poll_reply", "response"]
    reply, response = seen
    assert reply["q"] == 1
    assert response["start"] < reply["at"] < response["done"]

"""The ``LiveServer`` service path, driven over loopback UDP.

Each test boots one server on a fresh clock, talks to it from a plain
probe socket and checks what a client can see: FIFO order per worker,
the load a POLL reports, what the overload controller is told at
completion, that a sleep-mode service lasts at least its service time,
that ``close()`` mid-service answers nothing, and that spin-mode
service work leaves room for POLLs between its slices.
"""

import pytest

from repro.cluster.overload import OverloadPolicy
from repro.live import server as server_module
from repro.live.server import LiveServer
from repro.prototype.microbench import calibrate_spin
from tests.live.probe import run_for


def _request(probe, server, req_id, service):
    probe.send(server.address, "request", id=req_id, attempt=0, client=9, service=service)


def test_one_worker_serves_in_arrival_order(clock, probe):
    server = LiveServer(0, clock, workers=1, mode="sleep")
    for req_id in (1, 2, 3):
        _request(probe, server, req_id, 0.01)
    responses = probe.wait(clock, "response", 3)
    assert [r["id"] for r in responses] == [1, 2, 3]
    for before, after in zip(responses, responses[1:]):
        assert after["start"] >= before["done"]


def test_poll_during_service_reports_waiting_plus_in_service(clock, probe):
    server = LiveServer(0, clock, workers=1, mode="sleep")
    for req_id in (1, 2, 3):
        _request(probe, server, req_id, 0.05)
    run_for(clock, 0.01)
    assert server.queue_length == 3
    probe.send(server.address, "poll", pid=7)
    reply = probe.wait(clock, "poll_reply")[0]
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


def test_overload_controller_sees_the_completing_item_still_counted(
    clock, probe, monkeypatch
):
    monkeypatch.setattr(server_module, "OverloadController", _RecordingOverload)
    policy = OverloadPolicy(sojourn_target=1.0)
    server = LiveServer(0, clock, workers=1, mode="sleep", overload=policy)
    _request(probe, server, 1, 0.01)
    _request(probe, server, 2, 0.01)
    probe.wait(clock, "response", 2)
    # First completion: itself plus the one waiting; second: itself.
    assert server.overload.completion_queue_lengths == [2, 1]


def test_sleep_mode_service_lasts_at_least_its_service_time(clock, probe):
    service = 0.005
    server = LiveServer(0, clock, workers=2, mode="sleep")
    for req_id in range(6):
        _request(probe, server, req_id, service)
    for response in probe.wait(clock, "response", 6):
        # a lower bound only; 1 ns covers the float rounding of two
        # clock reads an origin apart
        assert response["done"] - response["start"] >= service - 1e-9


def test_close_mid_service_sends_nothing_and_caches_nothing(clock, probe):
    server = LiveServer(0, clock, workers=1, mode="sleep")
    _request(probe, server, 1, 0.05)
    _request(probe, server, 2, 0.05)
    run_for(clock, 0.01)
    assert server.queue_length == 2
    server.close()
    run_for(clock, 0.08)
    assert server.completed_count == 0
    assert server._served == {}
    assert probe.received("response") == []


@pytest.fixture(scope="module")
def calibration():
    return calibrate_spin(0.02)


@pytest.mark.parametrize("workers", [1, 2])
def test_spin_mode_answers_a_poll_between_service_slices(workers, calibration, clock, probe):
    server = LiveServer(0, clock, workers=workers, mode="spin", calibration=calibration)
    _request(probe, server, 1, 0.02)
    run_for(clock, 0.002)
    probe.send(server.address, "poll", pid=1)
    probe.wait(clock, "response")
    assert [m["k"] for m in probe.seen] == ["poll_reply", "response"]
    reply, response = probe.seen
    assert reply["q"] == 1
    assert response["start"] < reply["at"] < response["done"]

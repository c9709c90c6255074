"""The live runtime's one event loop (``WallClock.run_until``), its
transport's drop and error counting, and the guard that keeps it the
only loop.

The loop waits in ``select(2)``: epoll rounds every wait up to a whole
millisecond, so a live timer fired late on it. After each wait it reads
one datagram per readable socket, fires the due timers, then runs the
``call_soon`` FIFO — asyncio's ``_run_once`` order.
"""

import ast
import errno
import os
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import make_policy
from repro.experiments.runner import assemble
from repro.live import clock as clock_module
from repro.live.client import LiveCluster
from repro.live.server import LiveServer
from repro.net.message import MessageKind

SRC = Path(__file__).resolve().parents[2] / "src"


def test_no_module_under_src_imports_asyncio_or_defines_a_coroutine():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "asyncio" for name in names) or isinstance(
                node, (ast.AsyncFunctionDef, ast.Await)
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


class _Recorder:
    """An endpoint that appends what it receives to a shared list."""

    def __init__(self, log):
        self.log = log
        self.recv_errors = 0

    def datagram_received(self, data, addr):
        self.log.append(data.decode())


# ----------------------------------------------------------------------
# the loop's contract
# ----------------------------------------------------------------------
def test_timers_fire_in_time_then_seq_order(clock):
    fired = []
    now = clock.now
    clock.at(now + 0.02, fired.append, "late-first")
    clock.at(now + 0.01, fired.append, "early")
    clock.at(now + 0.02, fired.append, "late-second")
    clock.run_until(lambda: len(fired) == 3, 5.0)
    assert fired == ["early", "late-first", "late-second"]


def test_a_cancel_before_the_fire_holds(clock):
    fired = []
    clock.cancel(clock.at(clock.now + 0.005, fired.append, "timer"))
    clock.call_soon(fired.append, "soon").cancel()
    clock.after(0.01, fired.append, "kept")
    clock.run_until(lambda: fired, 5.0)
    assert fired == ["kept"]


def test_call_soon_runs_in_fifo_order_never_synchronously(clock):
    order = []

    def first():
        order.append("a")
        clock.call_soon(order.append, "c")  # queued by the FIFO: next wake-up

    clock.call_soon(first)
    clock.call_soon(order.append, "b")
    assert order == []
    clock.run_until(lambda: len(order) == 3, 5.0)
    assert order == ["a", "b", "c"]


def test_a_past_at_is_clamped_to_now(clock):
    fired = []
    before = clock.now
    handle = clock.at(before - 10.0, fired.append, "late")
    assert handle.time == before - 10.0
    assert clock._timers[0][0] >= before
    clock.run_until(lambda: fired, 5.0)
    assert fired == ["late"]


def test_one_wake_up_reads_then_fires_due_timers_then_runs_the_fifo(clock, probe):
    order = []
    sock = clock.open_udp(_Recorder(order))
    clock.call_soon(order.append, "soon")
    clock.at(clock.now - 1.0, order.append, "timer")
    probe.sock.sendto(b"datagram", sock.getsockname())
    clock.run_until(lambda: len(order) == 3, 5.0)
    assert order == ["datagram", "timer", "soon"]


def test_a_timeout_names_the_limit_and_closes_every_socket(clock):
    socks = [clock.open_udp(_Recorder([])) for _ in range(3)]
    with pytest.raises(TimeoutError, match="time limit of 0.05s"):
        clock.run_until(lambda: False, 0.05)
    assert [sock.fileno() for sock in socks] == [-1, -1, -1]
    assert clock._endpoints == {}


def test_the_wait_is_select_with_a_microsecond_timeout(clock, monkeypatch):
    waits = []
    real = select.select

    def recording(rlist, wlist, xlist, timeout):
        waits.append((list(rlist), timeout))
        return real(rlist, wlist, xlist, timeout)

    monkeypatch.setattr(select, "select", recording)
    sock = clock.open_udp(_Recorder([]))
    fired = []
    clock.after(0.0025, fired.append, True)
    clock.run_until(lambda: fired, 5.0)
    assert waits and all(rlist == [sock] for rlist, _ in waits)
    assert 0.0015 < waits[0][1] <= 0.0025  # not rounded to a whole millisecond
    assert not hasattr(clock_module, "selectors")


def test_a_socket_select_cannot_watch_is_refused_at_open(clock, monkeypatch):
    opened = []

    def high_fd(self):
        opened.append(self)
        return 1024

    monkeypatch.setattr(socket.socket, "fileno", high_fd, raising=False)
    with pytest.raises(ValueError, match=r"fd 1024 >= 1024: the live loop's select\(\)"):
        clock.open_udp(_Recorder([]))
    monkeypatch.undo()
    assert opened[0]._closed and clock._endpoints == {}


# ----------------------------------------------------------------------
# the transport: drops and read errors are counted, never silent
# ----------------------------------------------------------------------
def _fail_once(monkeypatch, name, error, sock=None):
    """Make the next ``socket.socket.<name>`` call (on ``sock``, if
    given) raise ``error``; later calls go through."""
    real = getattr(socket.socket, name)
    failed = []

    def flaky(self, *args):
        if not failed and (sock is None or self is sock):
            failed.append(True)
            raise error
        return real(self, *args)

    monkeypatch.setattr(socket.socket, name, flaky)


@pytest.mark.parametrize("error", [BlockingIOError, InterruptedError])
def test_a_dropped_server_send_is_counted(clock, probe, monkeypatch, error):
    server = LiveServer(0, clock, mode="sleep")
    probe.send(server.address, "poll", pid=1)
    _fail_once(monkeypatch, "sendto", error)  # the reply to poll 1
    clock.run_until(lambda: server.polls_served == 1, 5.0)
    assert server.counters()["send_drops"] == 1
    probe.send(server.address, "poll", pid=2)
    assert [reply["pid"] for reply in probe.wait(clock, "poll_reply")] == [2]


@pytest.mark.parametrize("error", [BlockingIOError, InterruptedError])
def test_a_dropped_client_send_is_counted_by_kind(clock, monkeypatch, error):
    server = LiveServer(0, clock, mode="sleep")
    cluster = LiveCluster(
        {0: server.address}, make_policy("random"), clock, request_timeout=0.05, max_retries=2
    )
    assemble(cluster, np.full(1, 0.001), np.full(1, 0.001))
    _fail_once(monkeypatch, "sendto", error)  # the first REQUEST
    metrics = cluster.run(5.0)
    assert cluster.network.dropped_counts == {MessageKind.REQUEST: 1}
    assert cluster.request_timeouts_fired == 1  # UDP semantics: the retry delivers
    assert metrics.summary(0.0)["n_failed"] == 0


def test_a_failed_read_is_counted_and_the_loop_goes_on(clock, probe, monkeypatch):
    server = LiveServer(0, clock, mode="sleep")
    _fail_once(monkeypatch, "recvfrom", ConnectionRefusedError(errno.ECONNREFUSED, "refused"),
               sock=server.sock)
    probe.send(server.address, "poll", pid=1)
    assert [reply["pid"] for reply in probe.wait(clock, "poll_reply")] == [1]
    assert server.counters()["recv_errors"] == 1


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def test_serve_prints_interrupted_on_ctrl_c():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--time-limit", "60"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("repro serve: node 0 on 127.0.0.1:"), banner
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert out.splitlines()[0] == "serve: interrupted"
    assert "Traceback" not in err

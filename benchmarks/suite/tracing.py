"""Spans recorded by the benchmark's own code, and self-time arithmetic.

Nothing in ``src/`` is instrumented. For the heap engine the tracer
hooks the public ``Simulator.trace`` callback (one span per executed
event, named after the package and function of its handler) and, for
the length of one traced cell, swaps class attributes of the public
layer boundaries — ``Simulator.at``, ``Network.send``,
``BroadcastChannel.publish``, ``LoadBalancer.select``,
``ServiceCluster.dispatch``/``poll_server``, ``ServerNode.enqueue``,
``ClusterMetrics.record`` — for wrappers that open a child span. (Most
of those classes use ``__slots__``, so the wrappers cannot live on the
instance.) The other workloads get spans around the public calls they
make.

A span is (name, start, end, parent, request index); spans live in
flat arrays and are written out when the traced run ends. Self time is
a span's duration minus what its children cover, minus the tracer's own
calibrated cost per child, so the traced shares describe the untraced
program.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

_pc = time.perf_counter

#: spans kept verbatim per trace file (aggregates cover all of them)
MAX_SPANS_WRITTEN = 5_000

EVENT = 0  # span opened by the Simulator.trace hook
CALL = 1   # span opened by a wrapper or a ``with tracer.span(...)``


class Tracer:
    """In-memory span store with a current-span stack kept in ``parent``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()
        #: (inner, outer) tracer seconds per span, by kind; see calibrate()
        self.cost = {EVENT: (0.0, 0.0), CALL: (0.0, 0.0)}

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.req = array("i")
        self.kind = array("b")
        self.cur = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ------------------------------------------------------
    def begin(self, nid: int, req: int = -1, kind: int = CALL) -> int:
        i = len(self.start)
        self.parent.append(self.cur)
        self.name.append(nid)
        self.req.append(req)
        self.kind.append(kind)
        self.end.append(0.0)
        self.cur = i
        self.start.append(_pc())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = _pc()
        self.cur = self.parent[i]

    @contextmanager
    def span(self, name: str, req: int = -1) -> Iterator[int]:
        i = self.begin(self.name_id(name), req)
        try:
            yield i
        finally:
            self.finish(i)

    def wrap(self, fn: Callable, name: str, req_of: Callable[..., int] | None = None) -> Callable:
        """``fn`` with a child span around every call."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        if req_of is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                i = begin(nid, req_of(*args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)

        return traced

    @contextmanager
    def patched(self, targets: list[tuple]) -> Iterator[None]:
        """Swap class attributes for traced versions; restore on exit.

        A target is ``(cls, attr, span name, req_of)`` for a plain
        wrapper, or ``(cls, attr, make)`` where ``make(original)``
        returns the replacement.
        """
        saved = []
        try:
            for cls, attr, *how in targets:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                replacement = how[0](original) if len(how) == 1 else self.wrap(original, *how)
                setattr(cls, attr, replacement)
            yield
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    # -- arithmetic -----------------------------------------------------
    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, tracer cost taken out.

        ``inner`` is tracer time inside a span's own window, ``outer``
        the tracer time its parent sees around that window.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        kind = np.frombuffer(self.kind, dtype=np.int8)
        inner = np.where(kind == EVENT, self.cost[EVENT][0], self.cost[CALL][0])
        outer = np.where(kind == EVENT, self.cost[EVENT][1], self.cost[CALL][1])
        return self_time_arrays(start, end, parent, inner, outer)

    def by_name(self) -> dict[str, dict[str, float]]:
        """name -> {count, total_s, self_s} over every recorded span."""
        if not len(self.start):
            return {}
        dur, own = self.self_times()
        name = np.frombuffer(self.name, dtype=np.int32)
        n = len(self.names)
        count = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        return {
            self.names[i]: {"count": int(count[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i in range(n)
            if count[i]
        }

    def head(self, limit: int = MAX_SPANS_WRITTEN) -> list[list]:
        """First ``limit`` spans as [name, start, end, parent, request] rows,
        times relative to the first span."""
        if not len(self.start):
            return []
        t0 = self.start[0]
        return [
            [self.names[self.name[i]], round(self.start[i] - t0, 9), round(self.end[i] - t0, 9), self.parent[i], self.req[i]]
            for i in range(min(limit, len(self.start)))
        ]


def self_time_arrays(start, end, parent, inner=0.0, outer=0.0):
    """Self time = duration − children's durations (− tracer cost).

    ``parent[i]`` is the index of span ``i``'s parent, −1 for a root.
    Returns ``(duration, self_time)``; self time never goes below 0.
    """
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent)
    inner = np.broadcast_to(np.asarray(inner, dtype=np.float64), dur.shape)
    outer = np.broadcast_to(np.asarray(outer, dtype=np.float64), dur.shape)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=(dur + outer)[has_parent], minlength=len(dur)
    )
    return dur, np.maximum(dur - inner - covered, 0.0)


def layer_of(span_name: str) -> str:
    """Share bucket of a span name ``<package>[.<module>].<function>``."""
    parts = span_name.split(".")
    if parts[0] != "cluster":
        return parts[0]
    module = parts[1] if len(parts) > 2 else "system"
    if module in ("system", "client", "request"):
        return "cluster.lifecycle"
    if module == "server":
        return "cluster.server"
    return "cluster.subsystem"


def layer_shares(by_name: dict[str, dict[str, float]], known: set[str]) -> dict[str, float]:
    """Self-time share per layer; names outside ``known`` fall to 'bench'."""
    total = sum(row["self_s"] for row in by_name.values())
    shares = {layer: 0.0 for layer in known}
    if total <= 0:
        return shares
    for name, row in by_name.items():
        layer = layer_of(name)
        shares[layer if layer in known else "bench"] += row["self_s"] / total
    return shares


# ----------------------------------------------------------------------
# heap-engine tracing
# ----------------------------------------------------------------------
def _handler_name(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or type(fn).__module__
    qual = getattr(fn, "__qualname__", type(fn).__name__).replace(".<locals>", "")
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        # cluster keeps its module so shares can split lifecycle/server/subsystems
        prefix = ".".join(parts[1:3]) if parts[1] == "cluster" else parts[1]
    else:
        prefix = "bench"
    return f"{prefix}.{qual}"


class HeapTracer:
    """Per-event spans through ``Simulator.trace`` plus boundary wrappers."""

    def __init__(self, tracer: Tracer):
        from repro.cluster.request import Request
        from repro.net.message import Message

        self.tracer = tracer
        self._request, self._message = Request, Message
        self._codes: dict[Any, int] = {}
        self._fn: Callable | None = None
        self._span = -1

    def hook(self, sim) -> Callable:
        """The ``Simulator.trace`` callable for ``sim`` (chains onto any
        hook already installed, e.g. the invariant oracle's)."""
        tracer = self.tracer
        codes = self._codes
        request_t, message_t = self._request, self._message
        previous = sim.trace
        # The engine's "no argument" marker, read off a public handle.
        no_arg = type(sim)().at(0.0, int).arg

        def run0() -> None:
            try:
                self._fn()
            finally:
                tracer.finish(self._span)

        def run1(arg: Any) -> None:
            try:
                self._fn(arg)
            finally:
                tracer.finish(self._span)

        def on_event(now: float, handle) -> None:
            if previous is not None:
                previous(now, handle)
            fn = handle.fn
            try:
                nid = codes[fn.__code__]
            except (KeyError, AttributeError):
                nid = tracer.name_id(_handler_name(fn))
                key = getattr(fn, "__code__", None)
                if key is not None:
                    codes[key] = nid
            arg = handle.arg
            kind = type(arg)
            if kind is request_t:
                req = arg.index
            elif kind is message_t and type(arg.payload) is request_t:
                req = arg.payload.index
            else:
                req = -1
            # The loop reads handle.fn after this hook returns, so the
            # span can close when the handler does, not at the next event.
            self._fn = fn
            handle.fn = run0 if arg is no_arg else run1
            self._span = tracer.begin(nid, req, EVENT)

        return on_event

    def boundaries(self) -> list[tuple]:
        """Class attributes to swap while a traced heap cell runs."""
        from repro.cluster.server import ServerNode
        from repro.cluster.system import ClusterMetrics, ServiceCluster
        from repro.core.base import LoadBalancer
        from repro.net.transport import BroadcastChannel, Network
        from repro.sim.engine import Simulator

        tracer = self.tracer
        request_t = self._request
        begin, finish = tracer.begin, tracer.finish
        send_id = tracer.name_id("net.send")
        poll_id = tracer.name_id("cluster.system.poll_server")
        callbacks: dict[Callable, Callable] = {}

        def traced_callback(fn: Callable) -> Callable:
            # Bound methods compare equal across accesses, so one wrapper each;
            # per-call closures are wrapped per call.
            if not hasattr(fn, "__self__"):
                return tracer.wrap(fn, _handler_name(fn))
            wrapped = callbacks.get(fn)
            if wrapped is None:
                wrapped = callbacks[fn] = tracer.wrap(fn, _handler_name(fn))
            return wrapped

        def make_send(send: Callable) -> Callable:
            def traced_send(net, kind, src, dst, payload, on_delivery, *rest, **kwargs):
                i = begin(send_id, payload.index if type(payload) is request_t else -1)
                try:
                    # With faults, a delivery trace or telemetry installed the
                    # event's handler is the network's own gate, which calls
                    # on_delivery inline: give the callback its own span there.
                    if (
                        net.faults is not None
                        or net.deliver_trace is not None
                        or net.inflight_recorder is not None
                    ):
                        on_delivery = traced_callback(on_delivery)
                    return send(net, kind, src, dst, payload, on_delivery, *rest, **kwargs)
                finally:
                    finish(i)
            return traced_send

        def make_poll(poll_server: Callable) -> Callable:
            def traced_poll(ctx, client, server_id, on_reply):
                # The reply callback belongs to the policy: its own span, so the
                # lifecycle's delivery closure is not charged for it.
                i = begin(poll_id)
                try:
                    return poll_server(ctx, client, server_id, tracer.wrap(on_reply, "core.on_poll_reply"))
                finally:
                    finish(i)
            return traced_poll

        targets: list[tuple] = [
            (Simulator, "at", "sim.at", None),
            (Network, "send", make_send),
            (BroadcastChannel, "publish", "net.publish", None),
            (ServiceCluster, "poll_server", make_poll),
            (ServiceCluster, "dispatch", "cluster.system.dispatch", lambda _c, _cl, request, *_: request.index),
            (ServerNode, "enqueue", "cluster.server.enqueue", lambda _s, request: request.index),
            (ClusterMetrics, "record", "cluster.system.record", lambda _m, request: request.index),
        ]
        # Every concrete policy defines its own select.
        for cls in _subclasses(LoadBalancer):
            if "select" in cls.__dict__:
                targets.append((cls, "select", "core.select", lambda _p, _c, request: request.index))
        return targets

    @contextmanager
    def installed(self, cluster) -> Iterator[None]:
        sim = cluster.sim
        saved_trace = sim.trace
        on_event = self.hook(sim)  # before Simulator.at is wrapped: it schedules once
        with self.tracer.patched(self.boundaries()):
            sim.trace = on_event
            try:
                yield
            finally:
                sim.trace = saved_trace


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def calibrate(tracer: Tracer, n: int = 20_000) -> None:
    """Measure the tracer's own cost per span and store it in ``tracer.cost``."""
    from repro.sim.engine import Simulator

    class _Box:
        def noop(self, _x: int) -> None:
            return None

    box = _Box()
    bare0 = _pc()
    for i in range(n):
        box.noop(i)
    bare = (_pc() - bare0) / n
    scratch = Tracer()
    with scratch.patched([(_Box, "noop", "bench.noop", None)]):
        root = scratch.begin(scratch.name_id("bench.root"))
        for i in range(n):
            box.noop(i)
        scratch.finish(root)
    dur = np.frombuffer(scratch.end, dtype=np.float64) - np.frombuffer(scratch.start, dtype=np.float64)
    inner = max(float(np.median(dur[1:])) - bare, 0.0)
    outer = max(float(dur[0]) / n - bare - inner, 0.0)
    tracer.cost[CALL] = (inner, outer)

    walls = []
    spans = Tracer()
    for traced in (False, True):
        sim = Simulator()
        for i in range(n):
            sim.at(i * 1e-6, box.noop, i)
        if traced:
            sim.trace = HeapTracer(spans).hook(sim)
        t0 = _pc()
        sim.run()
        walls.append(_pc() - t0)
    dur = np.frombuffer(spans.end, dtype=np.float64) - np.frombuffer(spans.start, dtype=np.float64)
    per_event = max((walls[1] - walls[0]) / n, 0.0)
    # The handler is one bare call; the rest of its recorded window is
    # the trampoline.
    inner = min(max(float(np.median(dur)) - bare, 0.0), per_event)
    tracer.cost[EVENT] = (inner, per_event - inner)


def write_trace(path: Path, workload: str, sections: list[dict]) -> None:
    """One trace file per workload: per-section aggregates over every
    span, plus the first spans of each section verbatim."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {
                "workload": workload,
                "span_fields": ["name", "start_s", "end_s", "parent", "request"],
                "sections": sections,
            },
            f,
        )

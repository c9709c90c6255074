"""Core event scheduler.

The scheduler is intentionally minimal: a binary heap of
:class:`EventHandle` objects ordered by ``(time, seq)``, with lazy
cancellation (cancelled handles stay in the heap and are skipped when
popped). This is the hot path of every experiment, so handles use
``__slots__`` and scheduling allocates only the handle and its
``(time, seq, handle)`` heap entry.
"""

from __future__ import annotations

import math

# Bound once at import: LOAD_GLOBAL on these beats the LOAD_GLOBAL +
# LOAD_ATTR pair on ``heapq.heappush``/``heapq.heappop``, which run once
# per event (profile-guided, on the §3.2 poll-profile run).
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (e.g. scheduling into the past)."""


class EventHandle:
    """A scheduled callback; compare by ``(time, seq)`` for heap order.

    ``seq`` breaks ties so that events scheduled earlier at the same
    timestamp fire first (deterministic FIFO ordering at equal times).
    """

    __slots__ = ("time", "seq", "fn", "arg", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], arg: Any):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state} {self.fn!r}>"


_SENTINEL = object()


class Simulator:
    """A discrete-event simulator clock + event heap.

    Time is a float in **seconds**. All scheduling is relative to the
    simulator's own clock; the simulator never observes wall-clock time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.after(1.5, fired.append, "a")
    >>> _ = sim.after(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = ("_heap", "now", "_seq", "_events_executed", "trace")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        #: current simulation time in seconds: a plain slot the event
        #: loop writes, so the dozen reads per request cost no call
        self.now: float = 0.0
        self._seq: int = 0
        self._events_executed: int = 0
        #: optional callable(time, handle) invoked before each event runs
        self.trace: Optional[Callable[[float, EventHandle], None]] = None

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events.

        Counted on demand: nothing reads it mid-run, so the loop keeps no
        counter for a cancel (of either spelling, before or after the
        handle fired) to get wrong.
        """
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none remain."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _heappop(heap)
        return heap[0][0] if heap else math.inf

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> EventHandle:
        """Schedule ``fn`` (optionally with one argument) at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (now={self.now!r}, requested={time!r})"
            )
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, seq, fn, arg)
        # Heap entries are (time, seq, handle) tuples: seq is unique, so
        # comparisons stay in C on floats and ints and never reach the
        # handle, which defines no order.
        _heappush(self._heap, (time, seq, handle))
        return handle

    def after(self, delay: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> EventHandle:
        """Schedule ``fn`` after a relative ``delay`` (must be >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        # Four pushes in five come through here, so it pushes what
        # :meth:`at` would push instead of paying a second frame.
        time = self.now + delay
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, seq, fn, arg)
        _heappush(self._heap, (time, seq, handle))
        return handle

    def call_soon(self, fn: Callable[..., Any], arg: Any = _SENTINEL) -> EventHandle:
        """Schedule ``fn`` at the current time (after already-queued events)."""
        return self.at(self.now, fn, arg)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a handle (idempotent, and safe after it fired)."""
        handle.cancelled = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event. Returns False if none remain."""
        heap = self._heap
        while heap:
            handle = _heappop(heap)[2]
            if handle.cancelled:
                continue
            self.now = handle.time
            self._events_executed += 1
            if self.trace is not None:
                self.trace(self.now, handle)
            arg = handle.arg
            if arg is _SENTINEL:
                handle.fn()
            else:
                handle.fn(arg)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have executed.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at exit (even if the last event fired earlier), and
        events scheduled at exactly ``until`` *do* execute.
        """
        heap = self._heap
        heappop = _heappop
        sentinel = _SENTINEL
        budget = math.inf if max_events is None else max_events
        limit = math.inf if until is None else until
        executed = 0
        # The loop keeps ``executed`` in a local and commits it to the
        # instance in ``finally`` (callbacks can abort the run by
        # raising, e.g. the cluster's run-complete unwind, and the
        # counter must survive that). ``self.now`` is still written
        # before every callback — callbacks read the clock.
        try:
            while heap and executed < budget:
                entry = heap[0]
                handle = entry[2]
                if handle.cancelled:
                    heappop(heap)
                    continue
                if entry[0] > limit:
                    break
                heappop(heap)
                self.now = time = handle.time
                executed += 1
                trace = self.trace
                if trace is not None:
                    trace(time, handle)
                arg = handle.arg
                if arg is sentinel:
                    handle.fn()
                else:
                    handle.fn(arg)
        finally:
            self._events_executed += executed
        if until is not None and self.now < until:
            self.now = until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending}>"

"""Calendar-queue event scheduler (drop-in alternative to the heap).

A calendar queue (Brown, CACM 1988) hashes events into an array of
time-bucketed "days"; dequeue scans forward from the current day and
only consults the handful of events hashed there, giving amortized O(1)
enqueue/dequeue when the queue is sized to the event population — the
binary heap's O(log n) is the comparison point this module exists to
beat on timer-heavy workloads.

Design constraints, in order:

1. **Bit-identical ordering.** Events fire in exactly the heap engine's
   ``(time, seq)`` order, including FIFO ties at equal timestamps, so a
   simulation produces field-for-field identical results under either
   engine (``tests/experiments/test_engine_parity.py`` enforces this).
2. **Same API.** :class:`CalendarSimulator` implements the full
   :class:`~repro.sim.engine.Simulator` surface — ``at``/``after``/
   ``call_soon``/``cancel``/``peek``/``step``/``run``/``trace`` — and
   reuses :class:`~repro.sim.engine.EventHandle`, so callers select an
   engine via :func:`make_simulator` and never branch again.
3. **Self-resizing.** The bucket array doubles/halves with the live
   event count and re-estimates the bucket width from the observed
   inter-event gaps, so no workload-specific tuning is needed.

Buckets are small binary heaps of ``(time, seq, handle)`` tuples (the
same entry layout as the flat heap, so tie-breaking logic is shared by
construction). Cancellation is lazy, exactly as in the heap engine.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, SimulationError, Simulator, _SENTINEL

__all__ = ["CalendarSimulator", "ENGINES", "make_simulator"]

#: smallest bucket array; also the shrink floor
_MIN_BUCKETS = 8

#: how many head events to sample when re-estimating the bucket width
_WIDTH_SAMPLE = 25


class CalendarSimulator:
    """Discrete-event simulator over a self-resizing calendar queue.

    Semantics are identical to :class:`~repro.sim.engine.Simulator`;
    see that class for the API contract. Only the priority-queue data
    structure differs.
    """

    __slots__ = (
        "_buckets",
        "_n_buckets",
        "_width",
        "_day",
        "_qsize",
        "now",
        "_seq",
        "_events_executed",
        "trace",
    )

    def __init__(self) -> None:
        self._buckets: list[list[tuple[float, int, EventHandle]]] = [
            [] for _ in range(_MIN_BUCKETS)
        ]
        self._n_buckets: int = _MIN_BUCKETS
        self._width: float = 1e-3  # re-estimated on first resize
        # The dequeue cursor is an *integer* day counter; an event lives
        # in bucket ``int(time/width) % n`` and is due exactly when the
        # cursor reaches ``int(time/width)``. Using the same int-divide
        # on both sides makes enqueue and dequeue agree bit-for-bit —
        # a float "end of window" threshold accumulates rounding error
        # and strands events that land exactly on a bucket boundary.
        self._day: int = 0
        # Entries in buckets, cancelled-but-unpurged ones included; the
        # bucket array is sized from it. A count of *live* events cannot
        # be kept here: ``EventHandle.cancel()`` never reaches the engine.
        self._qsize: int = 0
        #: current simulation time in seconds (a plain slot, as on the heap)
        self.now: float = 0.0
        self._seq: int = 0
        self._events_executed: int = 0
        #: optional callable(time, handle) invoked before each event runs
        self.trace: Optional[Callable[[float, EventHandle], None]] = None

    # ------------------------------------------------------------------
    # clock & introspection (mirrors Simulator)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events (counted on demand)."""
        return sum(
            1 for bucket in self._buckets for entry in bucket if not entry[2].cancelled
        )

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none remain."""
        entry = self._min_entry()
        return entry[0] if entry is not None else math.inf

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> EventHandle:
        """Schedule ``fn`` (optionally with one argument) at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (now={self.now!r}, requested={time!r})"
            )
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, arg)
        _heappush(
            self._buckets[int(time / self._width) % self._n_buckets],
            (time, self._seq, handle),
        )
        self._qsize += 1
        if self._qsize > 2 * self._n_buckets:
            self._resize(2 * self._n_buckets)
        return handle

    def after(self, delay: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> EventHandle:
        """Schedule ``fn`` after a relative ``delay`` (must be >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.at(self.now + delay, fn, arg)

    def call_soon(self, fn: Callable[..., Any], arg: Any = _SENTINEL) -> EventHandle:
        """Schedule ``fn`` at the current time (after already-queued events)."""
        return self.at(self.now, fn, arg)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a handle (idempotent, and safe after it fired)."""
        handle.cancelled = True

    # ------------------------------------------------------------------
    # calendar internals
    # ------------------------------------------------------------------
    def _min_entry(self) -> Optional[tuple[float, int, EventHandle]]:
        """Smallest live ``(time, seq, handle)`` across all bucket heads.

        Purges cancelled heads as a side effect; does not move the
        cursor (safe for :meth:`peek`).
        """
        best: Optional[tuple[float, int, EventHandle]] = None
        heappop = _heappop
        for bucket in self._buckets:
            while bucket and bucket[0][2].cancelled:
                heappop(bucket)
                self._qsize -= 1
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        return best

    def _pop_next(self) -> Optional[tuple[float, int, EventHandle]]:
        """Remove and return the next live entry, advancing the cursor."""
        if self._qsize == 0:
            return None
        buckets = self._buckets
        n = self._n_buckets
        width = self._width
        heappop = _heappop
        while True:
            # Scan one full year starting at the cursor's day. A bucket
            # head is due when its own day (computed with the *same*
            # int-divide as enqueue, so no float disagreement) has been
            # reached by the cursor.
            day = self._day
            for _ in range(n):
                bucket = buckets[day % n]
                while bucket and bucket[0][2].cancelled:
                    heappop(bucket)
                    self._qsize -= 1
                if bucket and int(bucket[0][0] / width) <= day:
                    self._day = day
                    self._qsize -= 1
                    return heappop(bucket)
                day += 1
            # Nothing due within a year of the cursor: jump straight to
            # the globally smallest event's day (sparse/far-future
            # case); the rescan pops it on its first probe.
            entry = self._min_entry()
            if entry is None:
                return None
            self._day = int(entry[0] / width)

    def _resize(self, n_buckets: int) -> None:
        """Rebuild with ``n_buckets`` buckets and a re-estimated width."""
        entries = [
            entry
            for bucket in self._buckets
            for entry in bucket
            if not entry[2].cancelled
        ]
        self._width = self._estimate_width(heapq.nsmallest(_WIDTH_SAMPLE, entries))
        self._n_buckets = n_buckets
        self._buckets = [[] for _ in range(n_buckets)]
        width = self._width
        for entry in entries:
            _heappush(self._buckets[int(entry[0] / width) % n_buckets], entry)
        self._qsize = len(entries)
        # Restart the cursor at the current day under the new width;
        # nothing can be scheduled before `now`, so no event is skipped.
        self._day = int(self.now / width)

    def _estimate_width(self, head: list[tuple[float, int, EventHandle]]) -> float:
        """Bucket width from head-of-queue inter-event gaps.

        Brown's rule of thumb: three times the average separation of the
        next events, so a day holds a handful of events. Falls back to
        the current width when the head is degenerate (all ties).
        """
        gaps = [
            later[0] - earlier[0]
            for earlier, later in zip(head, head[1:])
            if later[0] > earlier[0]
        ]
        if not gaps:
            return self._width
        width = 3.0 * (sum(gaps) / len(gaps))
        return max(width, 1e-12)

    # ------------------------------------------------------------------
    # execution (mirrors Simulator)
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event. Returns False if none remain."""
        entry = self._pop_next()
        if entry is None:
            return False
        handle = entry[2]
        self.now = handle.time
        self._events_executed += 1
        self._maybe_shrink()
        if self.trace is not None:
            self.trace(self.now, handle)
        if handle.arg is _SENTINEL:
            handle.fn()
        else:
            handle.fn(handle.arg)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until none remain, ``until`` is reached, or
        ``max_events`` have executed (same contract as the heap engine:
        events at exactly ``until`` do execute, and the clock lands on
        ``until`` at exit).
        """
        budget = math.inf if max_events is None else max_events
        limit = math.inf if until is None else until
        executed = 0
        while executed < budget:
            entry = self._pop_next()
            if entry is None:
                break
            if entry[0] > limit:
                # Went past the horizon: put the entry back untouched
                # ((time, seq) unchanged, so ordering is preserved) and
                # rewind the cursor, which _pop_next advanced to the far
                # event's day — events scheduled after this run() at
                # earlier times land in buckets behind that day and must
                # still fire first.
                _heappush(
                    self._buckets[int(entry[0] / self._width) % self._n_buckets],
                    entry,
                )
                self._qsize += 1
                self._day = int(self.now / self._width)
                break
            handle = entry[2]
            self.now = handle.time
            self._events_executed += 1
            executed += 1
            self._maybe_shrink()
            if self.trace is not None:
                self.trace(self.now, handle)
            if handle.arg is _SENTINEL:
                handle.fn()
            else:
                handle.fn(handle.arg)
        if until is not None and self.now < until:
            self.now = until

    def _maybe_shrink(self) -> None:
        if self._n_buckets > _MIN_BUCKETS and self._qsize < self._n_buckets // 2:
            self._resize(max(_MIN_BUCKETS, self._n_buckets // 2))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CalendarSimulator now={self.now:.6f} pending={self.pending} "
            f"buckets={self._n_buckets} width={self._width:.2e}>"
        )


#: selectable event-queue engines, keyed by the name used in
#: ``SimulationConfig.engine`` and the CLI ``--engine`` flag
ENGINES: dict[str, type] = {
    "heap": Simulator,
    "calendar": CalendarSimulator,
}

#: the default engine. The heap remains the default until the calendar
#: queue wins on the end-to-end benches, not just microbenches — see
#: DESIGN.md "Performance architecture" for the measurement.
DEFAULT_ENGINE = "heap"


def make_simulator(engine: str = DEFAULT_ENGINE):
    """Construct an event scheduler by engine name (``heap``/``calendar``)."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r} (choose from {sorted(ENGINES)})"
        ) from None
    return cls()

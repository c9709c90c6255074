"""A hand-cranked :class:`~repro.sim.clock.Clock` for the seam tests.

No run of the repository uses it: it exists so the tests can drive
breaker, TTL, backoff and overload logic from an arbitrary time origin.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple

_SENTINEL = object()


class ManualHandle:
    """Scheduled callback on a :class:`ManualClock` (mirrors EventHandle)."""

    __slots__ = ("time", "seq", "fn", "arg", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], arg: Any):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ManualHandle t={self.time:.6f} seq={self.seq} {state}>"


class ManualClock:
    """A hand-cranked :class:`Clock` for seam tests.

    Unlike ``repro.sim.engine.Simulator``, the origin is a
    constructor argument: ``ManualClock(origin=1.7e9)`` starts time at
    a wall-clock-like epoch offset, which is how the seam tests prove
    that breaker/TTL/backoff/overload logic never assumes ``t=0``.

    ``advance(dt)`` moves time forward, firing due callbacks in
    ``(time, seq)`` order with ``now`` set to each callback's fire time
    (exactly like the simulator's event loop).
    """

    def __init__(self, origin: float = 0.0) -> None:
        self._now = float(origin)
        self._seq = 0
        self._heap: List[Tuple[float, int, ManualHandle]] = []

    @property
    def now(self) -> float:
        return self._now

    def at(self, time: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> ManualHandle:
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (now={self._now!r}, requested={time!r})"
            )
        self._seq += 1
        handle = ManualHandle(time, self._seq, fn, arg)
        _heappush(self._heap, (time, self._seq, handle))
        return handle

    def after(self, delay: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> ManualHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.at(self._now + delay, fn, arg)

    def call_soon(self, fn: Callable[..., Any], arg: Any = _SENTINEL) -> ManualHandle:
        return self.at(self._now, fn, arg)

    def cancel(self, handle: Optional[ManualHandle]) -> None:
        if handle is not None:
            handle.cancelled = True

    # ------------------------------------------------------------------
    # test-driver surface (not part of the Clock protocol)
    # ------------------------------------------------------------------
    def advance(self, dt: float) -> int:
        """Advance time by ``dt`` seconds, firing due callbacks. Returns count fired."""
        if dt < 0:
            raise ValueError(f"cannot advance backwards: {dt!r}")
        return self.run_until(self._now + dt)

    def run_until(self, deadline: float) -> int:
        """Advance to ``deadline``, firing every callback due on the way."""
        if deadline < self._now:
            raise ValueError(
                f"cannot run backwards (now={self._now!r}, deadline={deadline!r})"
            )
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            _, _, handle = _heappop(heap)
            if handle.cancelled:
                continue
            self._now = handle.time
            fired += 1
            if handle.arg is _SENTINEL:
                handle.fn()
            else:
                handle.fn(handle.arg)
        self._now = deadline
        return fired

    @property
    def pending(self) -> int:
        return sum(1 for _, _, h in self._heap if not h.cancelled)

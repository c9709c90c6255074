"""The Clock seam between simulated and wall-clock runtimes.

Every component under ``repro.cluster`` / ``repro.net`` that needs time
or timers (circuit-breaker lazy transitions, retry backoff, overload
interval checks, soft-state TTL expiry, poll discard timers) already
consults an *injected* scheduler object rather than a global. This
module names that contract: :class:`Clock` is the structural protocol
those components actually require, and :class:`Simulator` satisfies it
with simulated time.

Two additional implementations exist:

* :class:`ManualClock` (here) — a hand-cranked clock for unit tests,
  notably with a **non-zero origin**, so tests can prove that a
  component works when time does not start at ``0.0`` (the wall-clock
  regime: ``loop.time()`` origins are arbitrary).
* ``repro.live.clock.WallClock`` — monotonic wall-clock time backed by
  an asyncio event loop, used by ``repro serve`` / ``repro drive``.

The protocol is intentionally the *narrow* surface shared by all
three; anything wider (``run()``, ``peek()``, event counters) is
engine-specific and must not be relied on by cluster/net code.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Protocol, Tuple, runtime_checkable

__all__ = ["Clock", "ClockHandle", "ManualClock", "ManualHandle"]

_SENTINEL = object()


@runtime_checkable
class ClockHandle(Protocol):
    """A cancellable scheduled callback.

    ``time`` is the absolute fire time on the owning clock; ``cancelled``
    is readable (some call sites inspect it for idempotent teardown).
    """

    time: float
    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """The time/timer surface cluster and net components depend on.

    Implementations: ``repro.sim.engine.Simulator`` (simulated time),
    ``repro.sim.clock.ManualClock`` (hand-cranked test time), and
    ``repro.live.clock.WallClock`` (asyncio monotonic wall time).

    Contract notes, shared by all implementations:

    * ``now`` is monotonic non-decreasing, in float seconds, with an
      **arbitrary origin** — components must only ever compare or
      subtract timestamps from the same clock, never assume ``now``
      starts at ``0.0``. Read it, never write it: it may be a property
      (``ManualClock``, ``WallClock``) or a plain attribute the event
      loop stores (the two simulators, where a request reads it a dozen
      times).
    * ``after`` rejects negative delays; ``call_soon`` schedules at the
      current time but never runs the callback synchronously.
    * ``cancel`` is idempotent and safe after the handle fired.
    """

    @property
    def now(self) -> float: ...

    def at(self, time: float, fn: Callable[..., Any], arg: Any = ...) -> Any: ...

    def after(self, delay: float, fn: Callable[..., Any], arg: Any = ...) -> Any: ...

    def call_soon(self, fn: Callable[..., Any], arg: Any = ...) -> Any: ...

    def cancel(self, handle: Any) -> None: ...


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

    Unlike :class:`~repro.sim.engine.Simulator`, the origin is a
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

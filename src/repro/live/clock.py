"""Wall-clock :class:`~repro.sim.clock.Clock` backed by an asyncio loop.

``WallClock`` duck-types the scheduling surface of
:class:`~repro.sim.engine.Simulator` (``now``/``at``/``after``/
``call_soon``/``cancel``) so every cluster component — polling discard
timers, reliability backoff, breaker lazy transitions, soft-state TTL
refresh loops — runs unmodified against real time.

``now`` is ``loop.time() - origin``: monotonic, in seconds, and (by
default) starting near ``0.0`` at construction so live timestamps look
like sim timestamps in spans/series exports. Components must not rely
on that convenience — the seam tests drive them with offset origins.
Every live entry point runs its loop through :func:`run`.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Callable, Coroutine, Optional, TypeVar

__all__ = ["WallClock", "WallHandle", "run"]

_SENTINEL = object()
_T = TypeVar("_T")


def run(coro: Coroutine[Any, Any, _T]) -> _T:
    """``asyncio.run(coro)`` on a ``select(2)`` event loop.

    epoll rounds every wait up to a whole millisecond (a 5 ms service
    timer fires up to 1 ms late); ``select`` takes a microsecond
    ``timeval``, but cannot watch a file descriptor >= 1024. As
    ``asyncio.run``, it returns the result or raises, then cancels
    leftover tasks, shuts down async generators and closes the loop;
    it never touches the event-loop policy or the current loop.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            if leftover:
                loop.run_until_complete(asyncio.gather(*leftover, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


class WallHandle:
    """A scheduled callback on a :class:`WallClock`.

    Mirrors :class:`~repro.sim.engine.EventHandle`'s readable surface
    (``time``, ``cancelled``, ``cancel()``) while wrapping an asyncio
    ``TimerHandle``.
    """

    __slots__ = ("time", "cancelled", "_timer")

    def __init__(self, time: float):
        self.time = time
        self.cancelled = False
        self._timer: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self._timer is not None:
                self._timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<WallHandle t={self.time:.6f} {state}>"


class WallClock:
    """Monotonic wall-clock time + timers over an asyncio event loop."""

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        origin: Optional[float] = None,
    ) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        # Default origin = "now", so clock readings start near 0.0 and
        # exported telemetry timestamps are human-readable offsets.
        self._origin = self._loop.time() if origin is None else float(origin)

    @property
    def now(self) -> float:
        return self._loop.time() - self._origin

    def at(self, time: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> WallHandle:
        """Schedule ``fn`` at absolute clock time ``time`` (clamped to now)."""
        handle = WallHandle(time)
        when = self._origin + max(time, self.now)
        handle._timer = self._loop.call_at(when, self._fire, handle, fn, arg)
        return handle

    def after(self, delay: float, fn: Callable[..., Any], arg: Any = _SENTINEL) -> WallHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.at(self.now + delay, fn, arg)

    def call_soon(self, fn: Callable[..., Any], arg: Any = _SENTINEL) -> WallHandle:
        handle = WallHandle(self.now)
        handle._timer = None
        soon = self._loop.call_soon(self._fire, handle, fn, arg)
        # call_soon returns a plain Handle; keep it cancellable anyway.
        handle._timer = soon  # type: ignore[assignment]
        return handle

    def cancel(self, handle: Optional[WallHandle]) -> None:
        if handle is not None:
            handle.cancel()

    @staticmethod
    def _fire(handle: WallHandle, fn: Callable[..., Any], arg: Any) -> None:
        if handle.cancelled:
            return
        if arg is _SENTINEL:
            fn()
        else:
            fn(arg)

"""The Clock seam between simulated and wall-clock runtimes.

Every component under ``repro.cluster`` / ``repro.net`` that needs time
or timers (circuit-breaker lazy transitions, retry backoff, overload
interval checks, soft-state TTL expiry, poll discard timers) already
consults an *injected* scheduler object rather than a global. This
module names that contract: :class:`Clock` is the structural protocol
those components actually require, and :class:`Simulator` satisfies it
with simulated time.

``repro.live.clock.WallClock`` satisfies it with monotonic wall-clock
time backed by an asyncio event loop (``repro serve`` / ``repro
drive``), and the seam tests' hand-cranked ``ManualClock``
(``tests/live/manual_clock.py``) with a **non-zero origin**, so they can
prove a component works when time does not start at ``0.0`` (the
wall-clock regime: ``loop.time()`` origins are arbitrary).

The protocol is intentionally the *narrow* surface shared by all
three; anything wider (``run()``, ``peek()``, event counters) is
engine-specific and must not be relied on by cluster/net code.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

__all__ = ["Clock", "ClockHandle"]


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
    ``repro.live.clock.WallClock`` (asyncio monotonic wall time), and the
    tests' ``ManualClock`` (hand-cranked test time).

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

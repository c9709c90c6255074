"""Clock seam contract: ManualClock, WallClock, and protocol conformance."""

import time

import pytest

from repro.live.clock import WallClock
from repro.sim.clock import Clock, ClockHandle
from repro.sim.engine import Simulator
from tests.live.manual_clock import ManualClock
from tests.live.probe import run_for


# ----------------------------------------------------------------------
# protocol conformance
# ----------------------------------------------------------------------
def test_simulator_satisfies_clock_protocol():
    assert isinstance(Simulator(), Clock)


def test_manual_clock_satisfies_clock_protocol():
    clock = ManualClock()
    assert isinstance(clock, Clock)
    assert isinstance(clock.after(1.0, lambda: None), ClockHandle)


def test_wall_clock_satisfies_clock_protocol():
    assert isinstance(WallClock(), Clock)


# ----------------------------------------------------------------------
# ManualClock
# ----------------------------------------------------------------------
def test_manual_clock_fires_in_time_then_seq_order():
    clock = ManualClock()
    fired = []
    clock.at(2.0, fired.append, "late")
    clock.at(1.0, fired.append, "early-first")
    clock.at(1.0, fired.append, "early-second")
    assert clock.advance(3.0) == 3
    assert fired == ["early-first", "early-second", "late"]
    assert clock.now == 3.0


def test_manual_clock_now_is_fire_time_inside_callback():
    clock = ManualClock(origin=100.0)
    seen = []
    clock.after(0.5, lambda: seen.append(clock.now))
    clock.advance(2.0)
    assert seen == [100.5]
    assert clock.now == 102.0


def test_manual_clock_nonzero_origin():
    clock = ManualClock(origin=1.7e9)
    assert clock.now == 1.7e9
    handle = clock.after(0.25, lambda: None)
    assert handle.time == 1.7e9 + 0.25


def test_manual_clock_cancel_is_idempotent_and_skips_fire():
    clock = ManualClock()
    fired = []
    handle = clock.after(1.0, fired.append, "x")
    clock.cancel(handle)
    clock.cancel(handle)
    handle.cancel()
    assert clock.advance(2.0) == 0
    assert fired == []
    assert clock.pending == 0


def test_manual_clock_call_soon_is_not_synchronous():
    clock = ManualClock(origin=5.0)
    fired = []
    clock.call_soon(fired.append, "soon")
    assert fired == []  # never runs inline
    clock.advance(0.0)
    assert fired == ["soon"]


def test_manual_clock_rejects_past_and_negative():
    clock = ManualClock(origin=10.0)
    with pytest.raises(ValueError):
        clock.at(9.0, lambda: None)
    with pytest.raises(ValueError):
        clock.after(-0.1, lambda: None)
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_manual_clock_sentinel_arg_convention():
    clock = ManualClock()
    calls = []
    clock.after(1.0, lambda: calls.append("no-arg"))
    clock.after(1.0, calls.append, "with-arg")
    clock.advance(1.0)
    assert calls == ["no-arg", "with-arg"]


# ----------------------------------------------------------------------
# WallClock (its loop's contract is in test_event_loop.py)
# ----------------------------------------------------------------------
def test_wall_clock_now_starts_near_zero_and_advances(clock):
    first = clock.now
    assert first < 1.0  # origin defaults to construction time
    run_for(clock, 0.02)
    assert clock.now > first


def test_wall_clock_after_fires_and_cancel_suppresses(clock):
    fired = []
    clock.after(0.01, fired.append, "kept")
    doomed = clock.after(0.01, fired.append, "cancelled")
    clock.cancel(doomed)
    clock.cancel(doomed)  # idempotent
    run_for(clock, 0.05)
    assert fired == ["kept"]


def test_wall_clock_rejects_negative_delay(clock):
    with pytest.raises(ValueError):
        clock.after(-0.5, lambda: None)


def test_wall_clock_explicit_origin_offsets_now():
    assert WallClock(origin=time.monotonic() - 1.7e9).now >= 1.7e9


def test_wall_clock_at_a_future_time_is_due_exactly_then():
    """Regression: ``at`` turned the time into a delay from one clock
    read and the loop read the clock again, so every timer landed late
    by the gap between the two reads."""
    clock = WallClock(origin=time.monotonic() - 5.0)
    clock.at(10.0, lambda: None)
    assert [when for when, _, _ in clock._timers] == [10.0]

"""Calendar-queue engine tests + edge cases shared by both engines.

The parametrized tests run identically against the heap and calendar
engines: any semantic difference between the two queues is a bug by
definition (the calendar engine's contract is bit-identical ordering).
"""

import math
import random

import pytest

from repro.sim import (
    CalendarSimulator,
    ENGINES,
    SimulationError,
    Simulator,
    make_simulator,
)

ENGINE_NAMES = sorted(ENGINES)


@pytest.fixture(params=ENGINE_NAMES)
def sim(request):
    return make_simulator(request.param)


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------

def test_make_simulator_types():
    assert isinstance(make_simulator("heap"), Simulator)
    assert isinstance(make_simulator("calendar"), CalendarSimulator)
    assert isinstance(make_simulator(), Simulator)  # default stays heap


def test_make_simulator_rejects_unknown():
    with pytest.raises(ValueError, match="unknown engine"):
        make_simulator("splay")


# ----------------------------------------------------------------------
# edge cases, parametrized over both queue implementations
# ----------------------------------------------------------------------

def test_cancel_then_reschedule_same_timestamp(sim):
    """A cancelled slot can be re-filled at the same time; FIFO order is
    by scheduling sequence, and the cancelled callback never fires."""
    fired = []
    first = sim.at(1.0, fired.append, "first")
    sim.at(1.0, fired.append, "second")
    sim.cancel(first)
    sim.at(1.0, fired.append, "replacement")
    assert sim.pending == 2
    sim.run()
    assert fired == ["second", "replacement"]
    assert sim.now == 1.0


@pytest.mark.parametrize("when", ["before it fires", "after it fired"])
@pytest.mark.parametrize("spelling", ["sim.cancel(handle)", "handle.cancel()"])
def test_pending_is_the_number_of_live_events(sim, spelling, when):
    """Both legal spellings of cancel, on either side of the firing
    (``Clock``: cancel is "safe after the handle fired"): ``pending``
    neither goes negative nor keeps counting a cancelled event."""
    fired = []
    handle = sim.after(1.0, fired.append, "target")
    sim.after(2.0, fired.append, "other")
    if when == "after it fired":
        sim.run(until=1.5)
        assert fired == ["target"] and sim.pending == 1
    for _ in range(2):  # idempotent
        if spelling == "handle.cancel()":
            handle.cancel()
        else:
            sim.cancel(handle)
        assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert fired == (["target", "other"] if when == "after it fired" else ["other"])
    assert sim.step() is False and sim.peek() == math.inf


def test_after_and_at_share_one_scheduling_order(sim):
    """``after(d, f)`` is ``at(now + d, f)``: one sequence counter, so
    interleaved calls — equal times included, from ``now == 0`` and from
    inside a callback — fire by (time, order of the scheduling call)."""
    rng = random.Random(4)
    fired, expected = [], []

    def schedule(batch):
        for i in range(60):
            delay = rng.choice([0.0, 0.25, 0.25, 0.5, 1.0, 1.75])
            tag = (batch, i)
            if rng.random() < 0.5:
                sim.after(delay, fired.append, tag)
            else:
                sim.at(sim.now + delay, fired.append, tag)
            expected.append((sim.now + delay, len(expected), tag))

    schedule("from t=0")
    sim.after(0.25, schedule, "from t=0.25, amid ties")
    sim.at(0.625, schedule, "from t=0.625")
    sim.run()
    assert fired == [tag for _time, _order, tag in sorted(expected)]
    assert len(fired) == 180


def test_cancel_reschedule_interleaved_many(sim):
    """Repeated cancel/reschedule churn at one timestamp stays FIFO."""
    fired = []
    handles = [sim.at(2.0, fired.append, i) for i in range(50)]
    for handle in handles[1::2]:
        sim.cancel(handle)
    replacements = [sim.at(2.0, fired.append, 100 + i) for i in range(10)]
    sim.cancel(replacements[0])
    sim.run()
    assert fired == list(range(0, 50, 2)) + [101 + i for i in range(9)]


def test_peek_after_mass_cancellation(sim):
    """peek() skips arbitrarily many cancelled events without firing any."""
    handles = [sim.at(0.001 * (i + 1), lambda: None) for i in range(500)]
    survivor = sim.at(0.75, lambda: None)
    for handle in handles:
        sim.cancel(handle)
    assert sim.peek() == pytest.approx(0.75)
    assert sim.pending == 1
    sim.cancel(survivor)
    assert sim.peek() == math.inf
    assert sim.step() is False


def test_run_until_event_exactly_at_boundary(sim):
    """Events at exactly `until` execute, and the clock lands on `until`."""
    fired = []
    sim.at(1.0, fired.append, "before")
    sim.at(2.0, fired.append, "boundary")
    sim.at(2.0 + 1e-12, fired.append, "after")
    sim.run(until=2.0)
    assert fired == ["before", "boundary"]
    assert sim.now == 2.0
    assert sim.pending == 1
    sim.run()
    assert fired == ["before", "boundary", "after"]


def test_run_until_with_no_event_at_boundary_advances_clock(sim):
    fired = []
    sim.at(0.5, fired.append, "x")
    sim.at(9.0, fired.append, "y")
    sim.run(until=3.0)
    assert fired == ["x"]
    assert sim.now == 3.0  # clock advances to the horizon, not the last event
    sim.run()
    assert sim.now == 9.0


def test_run_until_leaves_future_events_intact(sim):
    """An event past the horizon survives (ordering intact) and fires later."""
    fired = []
    sim.at(5.0, fired.append, "far")
    sim.at(5.0, fired.append, "far2")
    sim.run(until=1.0)
    assert fired == []
    assert sim.pending == 2
    sim.run()
    assert fired == ["far", "far2"]


def test_schedule_earlier_after_bounded_run(sim):
    """run(until=) that defers a far event must not strand later-scheduled
    earlier events behind the dequeue cursor (regression: the calendar
    cursor stayed at the far event's day, firing [a, far, b] with the
    clock running backwards from 0.01 to 0.003)."""
    fired = []
    sim.at(0.0005, fired.append, "a")
    sim.at(0.01, fired.append, "far")
    sim.run(until=0.001)
    assert fired == ["a"]
    assert sim.now == 0.001
    sim.at(0.003, fired.append, "b")
    times = []
    sim.trace = lambda t, handle: times.append(t)
    sim.run()
    assert fired == ["a", "b", "far"]
    assert times == sorted(times)  # time is monotone
    assert sim.now == 0.01


@pytest.mark.parametrize("seed", [0, 1])
def test_schedule_between_bounded_runs_matches_heap(seed):
    """Interleaving run(until=) with fresh earlier scheduling — the
    bounded-run-then-schedule pattern the cluster tests use — fires in
    the same order on both engines."""
    outputs = []
    for engine in ENGINE_NAMES:
        sim = make_simulator(engine)
        rng = random.Random(seed)
        fired = []
        sim.at(100.0, fired.append, "sentinel")  # stays deferred throughout
        for chunk in range(20):
            sim.run(until=0.25 * (chunk + 1))
            for i in range(10):
                sim.at(
                    round(sim.now + rng.uniform(0.0, 2.0), 3),
                    fired.append,
                    (chunk, i),
                )
        sim.run()
        outputs.append(fired)
    assert outputs[0] == outputs[1]


def test_max_events_budget(sim):
    fired = []
    for i in range(10):
        sim.at(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == list(range(10))


def test_schedule_into_past_rejected(sim):
    sim.at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.after(-1e-9, lambda: None)


def test_call_soon_ordering(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.call_soon(lambda: fired.append("soon"))
        sim.at(sim.now, lambda: fired.append("at-now"))

    sim.at(1.0, outer)
    sim.at(1.0, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "soon", "at-now"]


def test_trace_hook_fires_per_event(sim):
    seen = []
    sim.trace = lambda t, handle: seen.append(t)
    sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.run()
    assert seen == [1.0, 2.0]


def test_events_scheduled_from_callbacks(sim):
    """Self-scheduling chains (the arrival-loop pattern) terminate."""
    remaining = [1000]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            sim.after(1e-6, tick)

    sim.after(1e-6, tick)
    sim.run()
    assert remaining[0] == 0
    assert sim.events_executed == 1000


# ----------------------------------------------------------------------
# cross-engine ordering equivalence (randomized)
# ----------------------------------------------------------------------

def _random_schedule(sim, rng, n=3000):
    """A randomized mix of scheduling, ties, cancels, and reschedules."""
    fired = []
    handles = []
    for i in range(n):
        time = round(rng.uniform(0.0, 2.0), 3)  # coarse grid forces ties
        handles.append(sim.at(time, fired.append, i))
    for i in rng.sample(range(n), n // 3):
        sim.cancel(handles[i])
    for i in range(n // 10):
        # reschedule at an already-used timestamp
        time = handles[rng.randrange(n)].time
        sim.at(time, fired.append, n + i)
    sim.run()
    return fired


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calendar_matches_heap_ordering(seed):
    heap_fired = _random_schedule(make_simulator("heap"), random.Random(seed))
    cal_fired = _random_schedule(make_simulator("calendar"), random.Random(seed))
    assert cal_fired == heap_fired


def test_calendar_matches_heap_under_until_stepping():
    """Chunked run(until=...) execution is identical across engines."""
    outputs = []
    for engine in ENGINE_NAMES:
        sim = make_simulator(engine)
        rng = random.Random(7)
        fired = []
        for i in range(500):
            sim.at(round(rng.uniform(0, 1), 2), fired.append, i)
        horizon = 0.0
        while sim.pending:
            horizon += 0.05
            sim.run(until=horizon)
        outputs.append(fired)
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# calendar-specific internals
# ----------------------------------------------------------------------

def test_calendar_resizes_up_and_down():
    sim = make_simulator("calendar")
    for i in range(5000):
        sim.after(i * 1e-4, lambda: None)
    assert sim._n_buckets > 8  # grew with the population
    sim.run()
    assert sim._n_buckets == 8  # shrank back once drained
    assert sim.pending == 0


def test_calendar_sparse_far_future_jump():
    """A lone event years past the cursor is found via the direct jump."""
    sim = make_simulator("calendar")
    fired = []
    sim.at(1e-6, fired.append, "near")
    sim.at(1e6, fired.append, "far")
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == 1e6


def test_calendar_mixed_scales():
    """Microsecond and kilosecond events interleave correctly."""
    sim = make_simulator("calendar")
    fired = []
    for i in range(100):
        sim.at(i * 1e-6, fired.append, ("us", i))
        sim.at(1000.0 + i, fired.append, ("ks", i))
    sim.run()
    assert fired[:100] == [("us", i) for i in range(100)]
    assert fired[100:] == [("ks", i) for i in range(100)]

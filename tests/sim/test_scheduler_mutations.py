"""What the second scheduler buys: three seeded scheduler bugs, three detectors.

The calendar engine is 1.03-1.40x slower than the heap and is kept only
as the heap's differential partner (DESIGN.md §8). This file measures
what that partner catches. Each mutation is seeded *here*, as a subclass
of :class:`Simulator` / :class:`CalendarSimulator` swapped into
``ENGINES`` (``src/`` is untouched), and judged by:

- **cross-engine**: ``SimulationResult.digest()`` of four cluster cells
  on the heap against the same cells on the calendar — ``repro parity``
  and the fuzzer's check; needs no stored fixture, so it works on any
  config;
- **golden**: the heap's digests of those cells against digests
  recorded from the clean heap — what a committed single-engine golden
  file holds;
- **script**: a scheduler-level cross-engine firing order over bounded
  runs, as in ``tests/sim/test_calendar.py``.

:data:`EXPECTED` is the table DESIGN.md §8 prints; the test fails if a
detector's verdict on any mutation changes.
"""

import math
import random
from heapq import heappush

import pytest

from repro.experiments.chaos import (
    chaos_cluster_params,
    chaos_params_for,
    hardened_reliability_params,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_simulation
from repro.sim import calendar
from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import _SENTINEL, EventHandle, Simulator

_BASE = dict(n_servers=8, n_requests=600, seed=3, load=0.9)

CELLS = (
    SimulationConfig(policy="random", **_BASE),
    SimulationConfig(policy="broadcast", policy_params={"mean_interval": 0.01}, **_BASE),
    SimulationConfig(
        policy="polling",
        policy_params={"poll_size": 3, "discard_slow": True},
        workload="fine_grain",
        model="prototype",
        full_load_rho=0.99,
        **_BASE,
    ),
    SimulationConfig(
        policy="polling",
        policy_params={"poll_size": 2},
        cluster_params=chaos_cluster_params(),
        chaos_params=chaos_params_for(1.0, 8),
        reliability_params=hardened_reliability_params(),
        **_BASE,
    ),
)


# ----------------------------------------------------------------------
# the mutations
# ----------------------------------------------------------------------

def _lifo_at(self, time, fn, arg=_SENTINEL):
    """``at`` with the tie-break negated: same-time events fire LIFO."""
    self._seq += 1
    handle = EventHandle(time, self._seq, fn, arg)
    self._push((time, -self._seq, handle))
    return handle


def _lifo_after(self, delay, fn, arg=_SENTINEL):
    """``Simulator.after`` pushes without calling ``at`` (four pushes in
    five), so the mutation has to cover it too."""
    return self.at(self.now + delay, fn, arg)


class TieFlipHeap(Simulator):
    __slots__ = ()
    at = _lifo_at
    after = _lifo_after

    def _push(self, entry):
        heappush(self._heap, entry)


class TieFlipCalendar(CalendarSimulator):
    __slots__ = ()
    at = _lifo_at
    after = _lifo_after

    def _push(self, entry):
        heappush(self._buckets[int(entry[0] / self._width) % self._n_buckets], entry)
        self._qsize += 1


class OffByOneBucket(CalendarSimulator):
    """Enqueue hashes one day late; resize and put-back hash correctly
    (the index formula is written three times in ``calendar.py``)."""

    __slots__ = ()

    def at(self, time, fn, arg=_SENTINEL):
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, arg)
        index = (int(time / self._width) + 1) % self._n_buckets
        heappush(self._buckets[index], (time, self._seq, handle))
        self._qsize += 1
        if self._qsize > 2 * self._n_buckets:
            self._resize(2 * self._n_buckets)
        return handle


class LateCursorRewind(CalendarSimulator):
    """PR 1's real bug: ``run(until=)`` puts a beyond-horizon event back
    and leaves the cursor on that event's day. ``CalendarSimulator.run``
    verbatim, minus the rewind line."""

    __slots__ = ()

    def run(self, until=None, max_events=None):
        budget = math.inf if max_events is None else max_events
        limit = math.inf if until is None else until
        executed = 0
        while executed < budget:
            entry = self._pop_next()
            if entry is None:
                break
            if entry[0] > limit:
                heappush(
                    self._buckets[int(entry[0] / self._width) % self._n_buckets], entry
                )
                self._qsize += 1
                break  # mutation: no ``self._day = int(self.now / self._width)``
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


MUTATIONS = {
    "tie-order flip (heap)": {"heap": TieFlipHeap},
    "tie-order flip (both engines)": {"heap": TieFlipHeap, "calendar": TieFlipCalendar},
    "off-by-one bucket index (calendar)": {"calendar": OffByOneBucket},
    "late cursor rewind (calendar)": {"calendar": LateCursorRewind},
}

#: mutation -> caught by (cross-engine, golden, script)
EXPECTED = {
    "tie-order flip (heap)": (True, True, True),
    "tie-order flip (both engines)": (False, True, False),
    "off-by-one bucket index (calendar)": (True, False, True),
    "late cursor rewind (calendar)": (False, False, True),
}


# ----------------------------------------------------------------------
# the detectors
# ----------------------------------------------------------------------

def _digests(engine: str) -> list[str]:
    """One digest per cell; a crashed run is its own digest."""
    out = []
    for config in CELLS:
        try:
            out.append(run_simulation(config.with_updates(engine=engine)).digest())
        except Exception as err:  # a mutant may break the run outright
            out.append(f"raised {type(err).__name__}")
    return out


def _bounded_run_script(sim) -> list:
    """``run(until=)`` that defers a far event, then fresh earlier
    scheduling (``tests/sim/test_calendar.py``'s regression patterns,
    sparse then dense) — what PR 1's bug needed and no cluster run does."""
    rng = random.Random(0)
    fired: list = []
    sim.at(0.0005, fired.append, "near")
    sim.at(0.01, fired.append, "far")
    sim.run(until=0.001)
    sim.at(0.003, fired.append, "scheduled after the bounded run")
    sim.run()
    sim.at(100.0, fired.append, "deferred throughout")
    for chunk in range(20):
        sim.run(until=0.25 * (chunk + 1))
        for i in range(10):
            sim.at(round(sim.now + rng.uniform(0.0, 2.0), 3), fired.append, (chunk, i))
    sim.run()
    return fired


@pytest.fixture(scope="module")
def clean():
    heap, cal = _digests("heap"), _digests("calendar")
    assert heap == cal, "clean engines must agree before any mutant is judged"
    assert not any(f.startswith("raised") for f in heap)
    return heap


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_detector_verdicts(name, clean, monkeypatch):
    for engine, mutant in MUTATIONS[name].items():
        monkeypatch.setitem(calendar.ENGINES, engine, mutant)
    heap, cal = _digests("heap"), _digests("calendar")
    script = _bounded_run_script(calendar.make_simulator("calendar"))
    verdict = (
        heap != cal,
        heap != clean,
        script != _bounded_run_script(calendar.make_simulator("heap")),
    )
    assert verdict == EXPECTED[name]

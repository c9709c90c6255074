"""Discrete-event simulation kernel.

This subpackage provides the event-driven substrate used by every other
part of :mod:`repro`:

- :class:`~repro.sim.engine.Simulator` — a flat binary-heap event
  scheduler with lazy cancellation (the hot path).
- :class:`~repro.sim.calendar.CalendarSimulator` — a self-resizing
  calendar-queue scheduler with the same API and bit-identical event
  ordering; pick one via :func:`~repro.sim.calendar.make_simulator`.
- :mod:`~repro.sim.rng` — named, deterministic random substreams.
- :mod:`~repro.sim.monitor` — NumPy-backed time-series recorders.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.calendar import CalendarSimulator, DEFAULT_ENGINE, ENGINES, make_simulator
from repro.sim.clock import Clock, ClockHandle, ManualClock, ManualHandle
from repro.sim.rng import RngHub, substream_seed
from repro.sim.monitor import GrowableArray, StepRecorder

__all__ = [
    "CalendarSimulator",
    "Clock",
    "ClockHandle",
    "ManualClock",
    "ManualHandle",
    "DEFAULT_ENGINE",
    "ENGINES",
    "EventHandle",
    "GrowableArray",
    "RngHub",
    "SimulationError",
    "Simulator",
    "StepRecorder",
    "make_simulator",
    "substream_seed",
]

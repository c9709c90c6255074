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

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.sim.calendar:CalendarSimulator",
    "repro.sim.clock:Clock",
    "repro.sim.clock:ClockHandle",
    "repro.sim.clock:ManualClock",
    "repro.sim.clock:ManualHandle",
    "repro.sim.calendar:DEFAULT_ENGINE",
    "repro.sim.calendar:ENGINES",
    "repro.sim.engine:EventHandle",
    "repro.sim.monitor:GrowableArray",
    "repro.sim.rng:RngHub",
    "repro.sim.engine:SimulationError",
    "repro.sim.engine:Simulator",
    "repro.sim.monitor:StepRecorder",
    "repro.sim.calendar:make_simulator",
    "repro.sim.rng:substream_seed",
)

"""Live (wall-clock, loopback UDP) runtime for the Neptune prototype.

This package runs the *same* policy, reliability, and overload code as
the simulator, over real loopback UDP sockets with real time:

- :mod:`~repro.live.clock` — ``WallClock``: the :class:`repro.sim.clock.Clock`
  implementation on monotonic time, and the one ``select`` loop, over
  its own UDP sockets, that every live entry point runs on.
- :mod:`~repro.live.wire` — versioned datagram codec for the message
  kinds the sim models (REQUEST/RESPONSE/REJECT/POLL/POLL_REPLY/PUBLISH).
- :mod:`~repro.live.server` — ``LiveServer``: a UDP server node
  with a FIFO queue served by timers, CPU-spin or sleep service work,
  soft-state PUBLISH announcements, and the shared ``OverloadController``.
- :mod:`~repro.live.client` — ``LiveCluster``: the client/drive agent
  exposing the same policy-context surface as ``ServiceCluster`` so
  registry policies, ``ReliabilityEngine``, ``ClusterMetrics``, and
  ``TelemetryCollector`` run unmodified.
- :mod:`~repro.live.faults` — seeded loss/delay/duplication injection
  for loopback race-parity tests.
- :mod:`~repro.live.harness` — in-process loopback orchestration plus
  the sim-vs-real comparison used by ``repro drive``.

Nothing here is imported by the simulation paths: with no live runtime
involved, simulation outputs are bit-identical to pre-live behavior.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.live.clock:WallClock",
    "repro.live.clock:WallHandle",
    "repro.live.wire:WireError",
    "repro.live.wire:decode_message",
    "repro.live.wire:encode_message",
)

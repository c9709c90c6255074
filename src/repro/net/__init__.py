"""Message-level network substrate for the service cluster.

Clients and servers inside the paper's cluster communicate over a
switched 100 Mb/s Ethernet (layer 2) with no TCP-aware front end, so all
load information travels in explicit messages. This subpackage provides:

- :mod:`~repro.net.latency` — latency models plus the paper's measured
  constants (516 µs request+response, 290 µs idle UDP RTT, 339 µs TCP RTT
  without setup/teardown).
- :mod:`~repro.net.transport` — unicast :class:`Network` with per-kind
  message/byte accounting and a :class:`BroadcastChannel`.
- :mod:`~repro.net.switch` — an optional store-and-forward switched
  Ethernet model (per-port egress queues, serialization delay) for
  ablations that need bandwidth contention.
- :mod:`~repro.net.faults` — seeded message-level fault models (loss,
  duplication, jitter, bidirectional partitions) for chaos campaigns.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.net.transport:BroadcastChannel",
    "repro.net.latency:ConstantLatency",
    "repro.net.latency:LatencyModel",
    "repro.net.message:Message",
    "repro.net.message:MessageKind",
    "repro.net.transport:Network",
    "repro.net.faults:NetworkFaults",
    "repro.net.latency:PAPER_NET",
    "repro.net.latency:PaperNetworkConstants",
    "repro.net.switch:SwitchedEthernet",
    "repro.net.latency:UniformLatency",
)

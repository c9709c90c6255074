"""Store-and-forward switched-Ethernet model (optional substrate).

The paper's experiments treat the Lucent P550 switch as constant-latency
because its 22 Gb/s backplane is never the bottleneck at their message
rates. This module models the switch explicitly — per-destination-port
FIFO egress queues with serialization delay ``size/bandwidth`` — so that
ablations can check that assumption (and so the substrate exists for
workloads where it would *not* hold).
"""

from __future__ import annotations

from typing import Callable

from repro.net.message import Message
from repro.sim.engine import Simulator

__all__ = ["SwitchedEthernet"]

DeliveryCallback = Callable[[Message], None]


class _EgressPort:
    """FIFO egress port: messages serialize one at a time.

    ``busy_until`` starts at ``-inf``, not 0: the clock seam permits
    any origin, and an idle port must never delay the first message
    just because the clock happens to read below zero.
    """

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = float("-inf")


class SwitchedEthernet:
    """A single switch connecting ``n_ports`` hosts.

    Message timing: ``propagation`` (wire + switch forwarding) plus
    serialization on the destination's egress port at ``bandwidth_bps``,
    queued FIFO behind earlier messages to the same port.

    Defaults follow the paper's testbed: 100 Mb/s host links; the
    backplane (22 Gb/s) is modeled as uncontended, which is exact for
    output-queued switches like the P550 at these rates.
    """

    __slots__ = ("sim", "n_ports", "bandwidth_bps", "propagation", "_ports")

    def __init__(
        self,
        sim: Simulator,
        n_ports: int,
        bandwidth_bps: float = 100e6,
        propagation: float = 20e-6,
    ):
        if n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be > 0")
        self.sim = sim
        self.n_ports = n_ports
        self.bandwidth_bps = bandwidth_bps
        self.propagation = propagation
        self._ports = [_EgressPort() for _ in range(n_ports)]

    def serialization_delay(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto a link."""
        return size_bytes * 8.0 / self.bandwidth_bps

    def transit(self, message: Message, on_delivery: DeliveryCallback) -> float:
        """Forward ``message``; returns its delivery time.

        The destination port is ``message.dst % n_ports``.
        """
        port = self._ports[message.dst % self.n_ports]
        now = self.sim.now
        start = max(now + self.propagation, port.busy_until)
        done = start + self.serialization_delay(message.size_bytes)
        port.busy_until = done
        self.sim.at(done, on_delivery, message)
        return done

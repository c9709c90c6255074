"""The IDEAL baseline (paper §2 and §4).

"an approach in which all server load indices can be accurately
acquired on the client side free-of-cost whenever a service request is
to be made" — i.e. join-the-shortest-queue with an instantaneous,
exact oracle. Requests still pay the normal request/response network
latency and queueing; only the *information* is free.

Note the oracle is still not clairvoyant: requests dispatched in the
last 258 µs are in flight and invisible in queue lengths, so two
near-simultaneous selects can pick the same minimum. That matches both
the paper's simulation IDEAL and physical reality.

``weight_by_speed=True`` divides queue length by server speed (a
heterogeneity extension; no-op for homogeneous clusters).
"""

from __future__ import annotations

from repro.core.base import LoadBalancer, NoCandidatesError, choose_min_with_ties

__all__ = ["IdealOracle"]


class IdealOracle(LoadBalancer):
    name = "ideal"

    def __init__(self, weight_by_speed: bool = False):
        super().__init__()
        self.weight_by_speed = weight_by_speed

    def _setup(self) -> None:
        self._rng = self.ctx.index_stream("policy.ideal.ties")

    def select(self, client, request) -> None:
        candidates = self.ctx.available_servers(client)
        if not candidates:
            raise NoCandidatesError("no live servers")
        servers = self.ctx.servers
        if self.weight_by_speed:
            values = [
                (servers[i].queue_length + 1) / servers[i].speed for i in candidates
            ]
        else:
            values = [servers[i].queue_length for i in candidates]
        server_id = choose_min_with_ties(candidates, values, self._rng)
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            # The oracle reads live queue lengths: staleness is zero.
            telemetry.note_decision(
                request, float(servers[server_id].queue_length), self.ctx.sim.now
            )
        self.ctx.dispatch(client, request, server_id)

    def describe(self) -> str:
        return "ideal(weighted)" if self.weight_by_speed else "ideal"

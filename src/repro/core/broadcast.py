"""Broadcast policy (paper §2.2).

"an agent is deployed at each server which collects the server load
information and announces it through a broadcast channel at various
intervals. It is important to have non-fixed broadcast intervals to
avoid the system self-synchronization. The intervals we use are evenly
distributed between 0.5 and 1.5 times the mean value. Each client
listens at this broadcast channel and maintains the server load
information locally. Then every service request is made to a server
with the lightest workload."

Faithfulness notes:

- Clients do **not** locally increment the perceived queue of the
  server they just picked. That is exactly what produces the paper's
  *flocking effect* — between consecutive broadcasts every client
  floods the single perceived-minimum server.
- Ties are broken uniformly at random (all tables start at zero, so a
  deterministic argmin would initially flock to server 0 forever).
- Announcement messages travel at the one-way UDP latency; each client
  applies updates at its own delivery time.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LoadBalancer, choose_min_in_table

__all__ = ["BroadcastPolicy"]

_TABLE_KEY = "broadcast.table"
#: per-entry announce time of the value in _TABLE_KEY (t=0 for the
#: initial all-zero table) — what telemetry staleness is measured from
_TABLE_TIME_KEY = "broadcast.table_time"


def _interval_factors(rng: np.random.Generator):
    """The 0.5-1.5x interval factors, drawn 1024 at a time: a block
    draw yields the same sequence as that many scalar draws, at a
    fraction of the per-draw cost."""
    while True:
        yield from rng.uniform(0.5, 1.5, size=1024).tolist()


def _table_updater(table: np.ndarray, table_time: np.ndarray):
    """One client's channel subscriber, bound to its two table arrays."""

    def on_announcement(message) -> None:
        server_id, queue_length = message.payload
        table[server_id] = queue_length
        # The load index was read when the server *sent* the
        # announcement, not when it arrived here.
        table_time[server_id] = message.send_time

    return on_announcement


class BroadcastPolicy(LoadBalancer):
    name = "broadcast"

    def __init__(self, mean_interval: float):
        super().__init__()
        if mean_interval <= 0:
            raise ValueError(f"mean_interval must be > 0, got {mean_interval}")
        self.mean_interval = mean_interval
        self.broadcasts_sent = 0

    def _setup(self) -> None:
        ctx = self.ctx
        self._rng_ties = ctx.index_stream("policy.broadcast.ties")
        # The stream is private to this policy, so drawing ahead is unobservable.
        self._intervals = _interval_factors(ctx.rng("policy.broadcast.intervals"))
        from repro.net.transport import BroadcastChannel

        self._channel = BroadcastChannel(ctx.network)
        for client in ctx.selector_agents:
            table = client.state[_TABLE_KEY] = np.zeros(ctx.n_servers)
            table_time = client.state[_TABLE_TIME_KEY] = np.zeros(ctx.n_servers)
            self._channel.subscribe(client.node_id, _table_updater(table, table_time))
        for server in ctx.servers:
            self._schedule_announcement(server.node_id)

    # ------------------------------------------------------------------
    def _schedule_announcement(self, server_id: int) -> None:
        delay = next(self._intervals) * self.mean_interval
        self.ctx.sim.after(delay, self._announce, server_id)

    def _announce(self, server_id: int) -> None:
        server = self.ctx.servers[server_id]
        if server.alive:
            self.broadcasts_sent += 1
            self._channel.publish(server_id, payload=(server_id, server.queue_length))
        self._schedule_announcement(server_id)

    # ------------------------------------------------------------------
    def select(self, client, request) -> None:
        candidates = self.ctx.available_servers(client)
        table = client.state[_TABLE_KEY]
        server_id = choose_min_in_table(table, candidates, self._rng_ties)
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            telemetry.note_decision(
                request,
                float(table[server_id]),
                float(client.state[_TABLE_TIME_KEY][server_id]),
            )
        self.ctx.dispatch(client, request, server_id)

    def describe(self) -> str:
        return f"broadcast({self.mean_interval * 1e3:g}ms)"

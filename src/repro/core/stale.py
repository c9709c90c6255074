"""Stale-snapshot JSQ (extension; after Mitzenmacher, "How Useful Is
Old Information?", 2000).

All clients share a global queue-length snapshot refreshed every
``update_interval`` seconds (as if a monitoring system scraped every
server periodically and fanned the vector out for free). Between
refreshes the snapshot ages, so this isolates pure *staleness* from the
broadcast policy's per-server announcement jitter — the cleanest way to
demonstrate the flocking pathology as a function of information age.

``local_increment=True`` adds the classic mitigation: a client bumps
its own copy of the chosen server's entry, so consecutive requests from
the same client spread out even within one refresh epoch.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LoadBalancer, choose_min_in_table

__all__ = ["GlobalSnapshotPolicy"]

_LOCAL_KEY = "stale.local_table"


class GlobalSnapshotPolicy(LoadBalancer):
    name = "stale_jsq"

    def __init__(self, update_interval: float, local_increment: bool = False):
        super().__init__()
        if update_interval <= 0:
            raise ValueError(f"update_interval must be > 0, got {update_interval}")
        self.update_interval = update_interval
        self.local_increment = local_increment
        self.refreshes = 0

    def _setup(self) -> None:
        ctx = self.ctx
        self._rng = ctx.index_stream("policy.stale.ties")
        self._snapshot = np.zeros(ctx.n_servers)
        self._snapshot_time = 0.0
        if self.local_increment:
            for client in ctx.selector_agents:
                client.state[_LOCAL_KEY] = self._snapshot.copy()
        ctx.sim.after(self.update_interval, self._refresh)

    def _refresh(self) -> None:
        ctx = self.ctx
        for server in ctx.servers:
            self._snapshot[server.node_id] = server.queue_length
        self._snapshot_time = ctx.sim.now
        self.refreshes += 1
        if self.local_increment:
            for client in ctx.selector_agents:
                np.copyto(client.state[_LOCAL_KEY], self._snapshot)
        ctx.sim.after(self.update_interval, self._refresh)

    def select(self, client, request) -> None:
        candidates = self.ctx.available_servers(client)
        table = client.state[_LOCAL_KEY] if self.local_increment else self._snapshot
        server_id = choose_min_in_table(table, candidates, self._rng)
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            telemetry.note_decision(request, float(table[server_id]), self._snapshot_time)
        if self.local_increment:
            table[server_id] += 1
        self.ctx.dispatch(client, request, server_id)

    def describe(self) -> str:
        suffix = "+local" if self.local_increment else ""
        return f"stale_jsq({self.update_interval * 1e3:g}ms){suffix}"

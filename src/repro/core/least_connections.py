"""Client-local least-connections (extension).

The policy family used by nginx/HAProxy/Envoy when servers do not
export load: each client tracks its *own* outstanding requests per
server and picks the minimum. No messages at all — but each client only
sees 1/n_clients of the traffic, so the signal is weak for fine-grain
services with many clients. Included as a modern-practice baseline for
the ablation benches.

Accounting contract: every dispatch charges exactly one (selector,
server) cell, and the charge is released exactly once — on the next
re-dispatch of the same request (timeout retry to another server), on
completion, or on terminal failure. The explicit ledger makes the
release idempotent: without it, a timeout retry that re-dispatched
elsewhere plus the eventual completion notification decremented two
different cells for one dispatch, driving counters below zero (found
by ``repro fuzz``; see tests/verify/corpus/).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LoadBalancer, choose_min_in_table

__all__ = ["LeastConnectionsPolicy"]

_COUNTS_KEY = "least_connections.counts"


class LeastConnectionsPolicy(LoadBalancer):
    name = "least_connections"

    def _setup(self) -> None:
        self._rng = self.ctx.index_stream("policy.least_connections.ties")
        #: request index -> (selector node_id, server_id) of the single
        #: outstanding charge for that request
        self._charges: dict[int, tuple[int, int]] = {}
        self._tables: dict[int, np.ndarray] = {}
        for client in self.ctx.selector_agents:
            counts = np.zeros(self.ctx.n_servers, dtype=np.int64)
            client.state[_COUNTS_KEY] = counts
            self._tables[client.node_id] = counts

    def select(self, client, request) -> None:
        candidates = self.ctx.available_servers(client)
        counts = client.state[_COUNTS_KEY]
        server_id = choose_min_in_table(counts, candidates, self._rng)
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            # The counter is client-local and current: staleness is zero
            # (the *signal* is weak, not old).
            telemetry.note_decision(request, float(counts[server_id]), self.ctx.sim.now)
        self.ctx.dispatch(client, request, server_id)

    def notify_dispatch(self, client, request, server_id) -> None:
        # A retry supersedes the previous attempt: move the charge, never
        # stack a second one for the same request.
        self._release(request)
        self._tables[client.node_id][server_id] += 1
        self._charges[request.index] = (client.node_id, server_id)

    def notify_complete(self, client, request) -> None:
        self._release(request)

    def _release(self, request) -> None:
        charge = self._charges.pop(request.index, None)
        if charge is not None:
            node_id, server_id = charge
            self._tables[node_id][server_id] -= 1

    def verify_scan(self):
        """Oracle hook: ledger/counter consistency (None when healthy)."""
        outstanding = sum(int(t.sum()) for t in self._tables.values())
        if outstanding != len(self._charges):
            return (
                f"least_connections tables sum to {outstanding} but the "
                f"ledger holds {len(self._charges)} charges"
            )
        for node_id, counts in self._tables.items():
            if len(counts) and int(counts.min()) < 0:
                return (
                    f"least_connections count negative on selector "
                    f"{node_id} (min={int(counts.min())})"
                )
        return None

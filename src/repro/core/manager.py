"""Centralized load-index manager: the prototype's IDEAL emulation (§4).

"This is achieved through a centralized load index manager which keeps
track of all server load indices. Each client contacts the load index
manager whenever a service access is to be made. The load index manager
returns the server with the shortest service queue and increments that
queue length by one. Upon finishing one service access, each client is
required to contact the load index manager again so that the
corresponding server queue length can be properly decremented. This
approach closely emulates the actual [IDEAL] scenario with a delay of
around one TCP roundtrip without connection setup and teardown (around
339 us in our Linux cluster)."

Note the manager tracks its own *assignment counts*, not the servers'
true queue lengths — by-design exact bookkeeping (every dispatch and
completion is reported), which is what lets it avoid flocking entirely.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LoadBalancer, choose_min_in_table
from repro.net.message import Message, MessageKind

__all__ = ["CentralizedManagerPolicy"]


class CentralizedManagerPolicy(LoadBalancer):
    name = "manager"

    def __init__(self) -> None:
        super().__init__()
        self.queries_served = 0

    def _setup(self) -> None:
        ctx = self.ctx
        self._counts = np.zeros(ctx.n_servers, dtype=np.int64)
        self._rng = ctx.index_stream("policy.manager.ties")
        # The manager is a dedicated node; give it the next free id.
        self.manager_node_id = ctx.n_servers + ctx.n_clients

    # ------------------------------------------------------------------
    def select(self, client, request) -> None:
        self.ctx.network.send(
            MessageKind.MANAGER_QUERY,
            client.node_id,
            self.manager_node_id,
            (client, request),
            self._on_query,
        )

    def _on_query(self, message: Message) -> None:
        client, request = message.payload
        candidates = self.ctx.available_servers(client)
        server_id = choose_min_in_table(self._counts, candidates, self._rng)
        self.queries_served += 1
        self._counts[server_id] += 1
        self.ctx.network.send(
            MessageKind.MANAGER_REPLY,
            self.manager_node_id,
            client.node_id,
            (client, request, server_id),
            self._on_reply,
        )

    def _on_reply(self, message: Message) -> None:
        client, request, server_id = message.payload
        self.ctx.dispatch(client, request, server_id)

    def notify_complete(self, client, request) -> None:
        if request.server_id < 0:
            # Terminal failure with no recorded server (e.g. every
            # attempt timed out before enqueueing): there is no count to
            # release, and ``_counts[-1]`` would silently corrupt the
            # last server's cell.
            return
        # The completion notification is off the response path: the
        # client reports after receiving the response, and the count
        # drops when the notification reaches the manager.
        self.ctx.network.send(
            MessageKind.MANAGER_NOTIFY,
            client.node_id,
            self.manager_node_id,
            request.server_id,
            self._on_notify,
        )

    def _on_notify(self, message: Message) -> None:
        self._counts[message.payload] -= 1

    def outstanding(self) -> int:
        """Total assignments the manager believes are in flight."""
        return int(self._counts.sum())

"""Join-Idle-Queue (extension; Lu et al., 2011).

A modern successor to the paper's design space: instead of clients
pulling load (polling) or servers pushing load *levels* (broadcast),
servers push a single bit — "I just went idle" — to one dispatcher
(client), which keeps a local idle list. Selection is O(1) with no
critical-path messages: pop an idle server if the list is non-empty,
fall back to uniform random otherwise.

Relative to the paper's taxonomy this is server-initiated like
broadcast, but the information is *edge-triggered* and cheap (one
message per service completion that empties a queue, not a periodic
fan-out), so it scales like polling while avoiding poll latency. The
``bench_ablation_modern`` bench compares it against polling d=2 and
least-connections across service granularities.
"""

from __future__ import annotations

from collections import deque

from repro.core.base import LoadBalancer, NoCandidatesError
from repro.net.message import Message, MessageKind

__all__ = ["JoinIdleQueuePolicy"]

_IDLE_KEY = "jiq.idle_queue"


class JoinIdleQueuePolicy(LoadBalancer):
    name = "jiq"

    def __init__(self) -> None:
        super().__init__()
        self.idle_reports_sent = 0
        self.idle_hits = 0
        self.random_fallbacks = 0

    def _setup(self) -> None:
        ctx = self.ctx
        self._rng = ctx.index_stream("policy.jiq")
        for client in ctx.selector_agents:
            client.state[_IDLE_KEY] = deque()
        self._next_dispatcher = 0
        for server in ctx.servers:
            server.on_idle = self._on_server_idle

    # ------------------------------------------------------------------
    def _on_server_idle(self, server) -> None:
        """Server went idle: report to one dispatcher, round robin."""
        if not server.alive:
            return
        agents = self.ctx.selector_agents
        client = agents[self._next_dispatcher % len(agents)]
        self._next_dispatcher += 1
        self.idle_reports_sent += 1
        self.ctx.network.send(
            MessageKind.OTHER,
            server.node_id,
            client.node_id,
            server.node_id,
            lambda message, c=client: self._deliver_idle(c, message),
        )

    def _deliver_idle(self, client, message: Message) -> None:
        client.state[_IDLE_KEY].append(message.payload)

    # ------------------------------------------------------------------
    def select(self, client, request) -> None:
        candidates = self.ctx.available_servers(client)
        if not candidates:
            raise NoCandidatesError("no live servers")
        idle_queue = client.state[_IDLE_KEY]
        candidate_set = set(candidates)
        while idle_queue:
            server_id = idle_queue.popleft()
            if server_id in candidate_set:
                self.idle_hits += 1
                self.ctx.dispatch(client, request, server_id)
                return
        self.random_fallbacks += 1
        server_id = candidates[self._rng.integers(len(candidates))]
        self.ctx.dispatch(client, request, server_id)

"""Pure random policy: the paper's lower baseline.

Each access goes to a uniformly random candidate. No load information
is exchanged, so the policy is free — it is what the figures call
``random``, and what poll size 8 falls *below* for fine-grain services
on the prototype (Figure 6C).
"""

from __future__ import annotations

from repro.core.base import LoadBalancer, NoCandidatesError

__all__ = ["RandomPolicy"]


class RandomPolicy(LoadBalancer):
    name = "random"

    def _setup(self) -> None:
        self._rng = self.ctx.index_stream("policy.random")

    def select(self, client, request) -> None:
        candidates = self.ctx.available_servers(client)
        if not candidates:
            raise NoCandidatesError("no live servers")
        server_id = candidates[self._rng.integers(len(candidates))]
        self.ctx.dispatch(client, request, server_id)

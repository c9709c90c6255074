"""Load balancing policies (the paper's subject).

The paper's policies:

- :class:`~repro.core.random_policy.RandomPolicy` — uniform random.
- :class:`~repro.core.broadcast.BroadcastPolicy` — server-push load
  announcements at randomized intervals (§2.2).
- :class:`~repro.core.polling.RandomPollingPolicy` — client-pull
  power-of-d polling, with the §3.2 discard-slow-polls optimization.
- :class:`~repro.core.ideal.IdealOracle` — the free, always-accurate
  baseline the figures normalize against.
- :class:`~repro.core.manager.CentralizedManagerPolicy` — the prototype
  emulation of IDEAL via a central load-index manager over TCP (§4).

Extensions (ablations beyond the paper):

- :class:`~repro.core.round_robin.RoundRobinPolicy`,
- :class:`~repro.core.stale.GlobalSnapshotPolicy` (stale-info JSQ,
  after Mitzenmacher 2000),
- :class:`~repro.core.least_connections.LeastConnectionsPolicy`
  (client-local counts, the nginx/HAProxy family).

Use :func:`~repro.core.registry.make_policy` to build by name.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.core.broadcast:BroadcastPolicy",
    "repro.core.manager:CentralizedManagerPolicy",
    "repro.core.stale:GlobalSnapshotPolicy",
    "repro.core.ideal:IdealOracle",
    "repro.core.jiq:JoinIdleQueuePolicy",
    "repro.core.least_connections:LeastConnectionsPolicy",
    "repro.core.base:LoadBalancer",
    "repro.core.random_policy:RandomPolicy",
    "repro.core.polling:RandomPollingPolicy",
    "repro.core.round_robin:RoundRobinPolicy",
    "repro.core.registry:available_policies",
    "repro.core.base:choose_min_in_table",
    "repro.core.base:choose_min_with_ties",
    "repro.core.registry:make_policy",
)

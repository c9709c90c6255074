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

from repro.core.base import LoadBalancer, choose_min_in_table, choose_min_with_ties
from repro.core.random_policy import RandomPolicy
from repro.core.round_robin import RoundRobinPolicy
from repro.core.ideal import IdealOracle
from repro.core.jiq import JoinIdleQueuePolicy
from repro.core.broadcast import BroadcastPolicy
from repro.core.polling import RandomPollingPolicy
from repro.core.manager import CentralizedManagerPolicy
from repro.core.stale import GlobalSnapshotPolicy
from repro.core.least_connections import LeastConnectionsPolicy
from repro.core.registry import available_policies, make_policy

__all__ = [
    "BroadcastPolicy",
    "CentralizedManagerPolicy",
    "GlobalSnapshotPolicy",
    "IdealOracle",
    "JoinIdleQueuePolicy",
    "LeastConnectionsPolicy",
    "LoadBalancer",
    "RandomPolicy",
    "RandomPollingPolicy",
    "RoundRobinPolicy",
    "available_policies",
    "choose_min_in_table",
    "choose_min_with_ties",
    "make_policy",
]

"""Policy registry: build policies by name (used by experiment configs).

Each name maps to a :func:`repro.locate` string, so building one policy
imports that policy's module and no other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import locate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import LoadBalancer

__all__ = ["make_policy", "available_policies"]

_REGISTRY: dict[str, str] = {
    "random": "repro.core.random_policy:RandomPolicy",
    "round_robin": "repro.core.round_robin:RoundRobinPolicy",
    "ideal": "repro.core.ideal:IdealOracle",
    # alias: IDEAL *is* join-shortest-queue with a free oracle
    "jsq": "repro.core.ideal:IdealOracle",
    "broadcast": "repro.core.broadcast:BroadcastPolicy",
    "polling": "repro.core.polling:RandomPollingPolicy",
    "manager": "repro.core.manager:CentralizedManagerPolicy",
    "stale_jsq": "repro.core.stale:GlobalSnapshotPolicy",
    "least_connections": "repro.core.least_connections:LeastConnectionsPolicy",
    "jiq": "repro.core.jiq:JoinIdleQueuePolicy",
}


def available_policies() -> list[str]:
    """Registered policy names."""
    return sorted(_REGISTRY)


def make_policy(name: str, **params) -> LoadBalancer:
    """Instantiate a policy by registry name.

    Examples: ``make_policy("polling", poll_size=2)``,
    ``make_policy("broadcast", mean_interval=0.1)``.
    """
    try:
        where = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
    return locate(where)(**params)

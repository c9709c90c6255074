"""Property-based invariants of the dispatcher tier + autoscaler.

Whatever scaling policy the controller runs — however aggressively it
parks and activates servers, and whether or not routing goes through a
dispatcher tier — two things must hold:

1. conservation / exactly-once: every issued request either completes
   or fails terminally, exactly once (scale-down never loses in-flight
   work — parking actuates through publish withdrawal, not preemption);
2. the active pool never leaves the policy's [min, max] bounds.
"""

from dataclasses import asdict

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import AutoscalerPolicy, DispatcherPolicy, ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble

scaling_strategy = st.builds(
    AutoscalerPolicy,
    interval=st.floats(min_value=0.01, max_value=0.2),
    min_servers=st.integers(1, 2),
    initial_servers=st.integers(0, 4),
    shed_high=st.floats(min_value=0.0, max_value=0.2),
    p95_high=st.one_of(st.none(), st.floats(min_value=0.02, max_value=0.5)),
    util_low=st.floats(min_value=0.0, max_value=1.0),
    step_up=st.integers(1, 4),
    step_down=st.integers(1, 4),
    cooldown=st.floats(min_value=0.0, max_value=0.3),
)

tier_strategy = st.one_of(
    st.none(),
    st.builds(
        DispatcherPolicy,
        count=st.integers(1, 3),
        assignment=st.sampled_from(["static", "failover"]),
    ),
)


@given(
    scaling=scaling_strategy,
    dispatcher=tier_strategy,
    load=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=15, deadline=None)
def test_scaling_conserves_requests_and_respects_bounds(
    scaling, dispatcher, load, seed
):
    # the cluster constructor rejects an initial pool below the floor
    assume((scaling.initial_servers or scaling.min_servers) >= scaling.min_servers)
    n = 150
    cluster = ServiceCluster(
        n_servers=4,
        n_clients=2,
        policy=make_policy("random"),
        seed=seed,
        request_timeout=0.2,
        max_retries=10,
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.005
    gaps = rng.exponential(mean_service / (4 * load), n)
    services = rng.exponential(mean_service, n) + 1e-9
    installs = {"dispatchers": asdict(dispatcher)} if dispatcher is not None else {}
    assemble(
        cluster, gaps, services, autoscaler=asdict(scaling),
        availability={"refresh": 0.05, "ttl": 0.15}, **installs,
    )

    lo = scaling.min_servers
    hi = scaling.max_servers or 4
    bounds_seen = []
    original_tick = cluster.autoscaler._tick

    def watched_tick():
        original_tick()
        bounds_seen.append(cluster.autoscaler.n_active)

    cluster.autoscaler._tick = watched_tick
    metrics = cluster.run()

    # 1. conservation: every request terminal exactly once
    finished = np.isfinite(metrics.response_time)
    assert int(finished.sum()) + int(metrics.failed.sum()) == n
    assert not np.any(finished & metrics.failed)

    # 2. pool bounds hold at every control tick (and at the end)
    assert all(lo <= seen <= hi for seen in bounds_seen)
    assert lo <= cluster.autoscaler.n_active <= hi

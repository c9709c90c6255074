"""Property-based invariants of the chaos subsystem.

Whatever faults are injected, three things must hold:

1. no message is ever delivered to a crashed node or across an active
   partition (the delivery-gate invariant);
2. duplicated deliveries never produce duplicate completions — each
   request is recorded exactly once;
3. conservation: every issued request either completes or fails
   terminally, exactly once (completed + lost == issued).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ChaosInjector,
    ChaosSpec,
    ClusterMetrics,
    ServiceCluster,
)
from repro.core import make_policy
from repro.experiments.runner import assemble

policy_strategy = st.sampled_from(
    [
        ("random", {}),
        ("polling", {"poll_size": 2, "discard_slow": True}),
        ("broadcast", {"mean_interval": 0.05}),
    ]
)

spec_strategy = st.builds(
    ChaosSpec,
    loss=st.floats(min_value=0.0, max_value=0.25),
    duplicate=st.floats(min_value=0.0, max_value=0.3),
    jitter_mean=st.floats(min_value=0.0, max_value=0.002),
    stragglers=st.integers(0, 2),
    straggle_factor=st.floats(min_value=1.5, max_value=8.0),
    partitions=st.integers(0, 1),
    storms=st.integers(0, 1),
    storm_size=st.integers(1, 2),
)


def run_chaos_cluster(policy, spec, seed, n=120, reliability=None):
    name, params = policy
    cluster = ServiceCluster(
        n_servers=4,
        n_clients=2,
        policy=make_policy(name, **params),
        seed=seed,
        request_timeout=0.2,
        max_retries=60,
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.005
    gaps = rng.exponential(mean_service / (4 * 0.6), n)
    services = rng.exponential(mean_service, n) + 1e-9
    installs = {} if reliability is None else {"reliability": reliability}
    assemble(cluster, gaps, services, availability={"refresh": 0.05, "ttl": 0.15}, **installs)
    injector = ChaosInjector(cluster, spec=spec)
    return cluster, injector


@given(policy=policy_strategy, spec=spec_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_no_delivery_to_crashed_or_partitioned_node(policy, spec, seed):
    cluster, injector = run_chaos_cluster(policy, spec, seed)
    faults = injector.faults

    def assert_deliverable(message):
        assert message.dst not in injector.dead, (
            f"delivered {message!r} to crashed node {message.dst}"
        )
        assert message.src not in injector.dead, (
            f"delivered {message!r} from crashed node {message.src}"
        )
        assert not faults.severed(message.src, message.dst), (
            f"delivered {message!r} across an active partition"
        )

    cluster.network.deliver_trace = assert_deliverable
    metrics = cluster.run()

    # Conservation: every request completes XOR fails, exactly once.
    finite = np.isfinite(metrics.response_time)
    assert (finite ^ metrics.failed).all()
    assert int(finite.sum()) + int(metrics.failed.sum()) == metrics.n


@given(policy=policy_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_duplicated_deliveries_never_duplicate_completions(policy, seed):
    """Heavy duplication, zero loss: everything completes, once each."""
    spec = ChaosSpec(duplicate=0.5)
    cluster, injector = run_chaos_cluster(policy, spec, seed)

    recorded: list[int] = []
    original_record = ClusterMetrics.record

    def counting_record(self, request):
        recorded.append(request.index)
        original_record(self, request)

    ClusterMetrics.record = counting_record
    try:
        metrics = cluster.run()
    finally:
        ClusterMetrics.record = original_record

    assert np.isfinite(metrics.response_time).all()
    assert metrics.failed.sum() == 0
    assert sorted(recorded) == list(range(metrics.n)), "a request was recorded twice"
    # With duplicate=0.5 over hundreds of messages, duplicates certainly
    # happened — and every one was discarded, not double-completed.
    assert injector.faults.total_duplicated() > 0
    assert (
        cluster.duplicate_deliveries_ignored + cluster.stale_responses_ignored > 0
    )


reliability_strategy = st.sampled_from(
    [
        # hedging + breakers (the canonical hardened combination)
        dict(hedge_quantile=0.9, breaker_threshold=4, breaker_cooldown=0.3),
        # deadline budget + jittered backoff + retry budget
        dict(deadline=1.5, backoff_base=0.002, retry_budget=100),
        # everything at once
        dict(
            deadline=2.0, backoff_base=0.001, retry_budget=200,
            hedge_quantile=0.8, breaker_threshold=3, breaker_cooldown=0.2,
        ),
    ]
)


@given(
    policy=policy_strategy,
    spec=spec_strategy,
    reliability=reliability_strategy,
    seed=st.integers(0, 2**31),
)
@settings(max_examples=12, deadline=None)
def test_reliability_layer_preserves_exactly_once_conservation(
    policy, spec, reliability, seed
):
    """Hedge copies, fail-fast paths, and breaker ejections must never
    break the core invariant: one terminal outcome per request."""
    cluster, injector = run_chaos_cluster(policy, spec, seed, reliability=reliability)
    del injector
    metrics = cluster.run()
    finite = np.isfinite(metrics.response_time)
    assert (finite ^ metrics.failed).all()
    assert int(finite.sum()) + int(metrics.failed.sum()) == metrics.n
    # The engine's per-request state fully drains at terminal outcomes.
    assert cluster.reliability is not None
    assert not cluster.reliability._states

"""Tests for the dispatcher-tier subsystem (DESIGN.md §16).

Covers the policy value object, the literal config-key mirror, the
zero-overhead guarantee (a cluster built without a policy — or with the
all-default disabled policy — is bit-identical to direct client→server
selection), end-to-end tier routing, failover vs static assignment
under dispatcher crashes, tier-level admission, stale mapping views,
per-dispatcher circuit breakers, and the dispatcher fault axis of the
chaos injector.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import (
    ChaosInjector,
    ChaosSpec,
    DispatcherPolicy,
    FailureInjector,
    ServiceCluster,
)
from repro.core import RandomPolicy
from repro.experiments.runner import assemble


def build(dispatcher=None, n_servers=4, n_requests=200, load=0.5, seed=3,
          mean_service=0.01, availability=None, **kwargs):
    """A small cluster with the ``dispatcher`` policy and the
    ``availability`` knobs (``None``: not installed) installed."""
    cluster = ServiceCluster(
        n_servers=n_servers, policy=RandomPolicy(), seed=seed, **kwargs
    )
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    installs = {"dispatchers": asdict(dispatcher)} if dispatcher is not None else {}
    if availability is not None:
        installs["availability"] = availability
    return assemble(cluster, gaps, services, **installs)


def tier_policy(**overrides):
    values = dict(count=2)
    values.update(overrides)
    return DispatcherPolicy(**values)


# ----------------------------------------------------------------------
# DispatcherPolicy value object
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"count": 0},
        {"count": -1},
        {"count": 2, "assignment": "roundrobin"},
        {"count": 2, "suspect_cooldown": 0.0},
        {"count": 2, "view_lag": -0.1},
        {"count": 2, "admit_sojourn_target": 0.0},
        {"count": 2, "admit_interval": 0.0},
        {"count": 2, "admit_ewma_alpha": 0.0},
        {"count": 2, "admit_ewma_alpha": 1.5},
        {"count": 2, "breaker_threshold": 0},
        {"count": 2, "breaker_cooldown": 0.0},
    ],
)
def test_policy_rejects_bad_values(kwargs):
    # admit_interval / admit_ewma_alpha are module constants now: naming
    # one is an unknown keyword
    known = set(kwargs) <= DispatcherPolicy.field_names()
    with pytest.raises(ValueError if known else TypeError):
        DispatcherPolicy(**kwargs)


def test_default_policy_is_disabled():
    assert not DispatcherPolicy().enabled
    assert tier_policy().enabled


# ----------------------------------------------------------------------
# zero-overhead guarantee
# ----------------------------------------------------------------------

def test_disabled_policy_is_bit_identical_to_no_policy():
    """count=None must take exactly the legacy direct-selection paths."""
    baseline = build(seed=17, n_requests=400, request_timeout=0.5, max_retries=3)
    disabled = build(
        seed=17, n_requests=400, request_timeout=0.5, max_retries=3,
        dispatcher=DispatcherPolicy(),
    )
    a = baseline.run()
    b = disabled.run()
    assert np.array_equal(a.response_time, b.response_time)
    assert np.array_equal(a.server_id, b.server_id)
    assert baseline.sim.events_executed == disabled.sim.events_executed


# ----------------------------------------------------------------------
# tier routing
# ----------------------------------------------------------------------

def test_tier_completes_all_requests_and_counts_forwards():
    cluster = build(dispatcher=tier_policy(), request_timeout=0.5, max_retries=3)
    metrics = cluster.run()
    assert int(metrics.failed.sum()) == 0
    counters = cluster.dispatchers.counters()
    # every request crossed the tier at least once
    assert counters["dispatcher_forwards"] >= 200
    assert counters["dispatcher_sheds"] == 0
    tier = cluster.dispatchers.dispatchers
    assert len(tier) == 2
    assert sum(d.forwards for d in tier) == counters["dispatcher_forwards"]
    # tier drained: nothing left in flight at the end of the run
    assert sum(d.inflight for d in tier) == 0


def test_tier_selection_uses_per_dispatcher_agents():
    """The tier exposes its own selector agents, not the client set."""
    cluster = build(dispatcher=tier_policy(), request_timeout=0.5)
    agents = cluster.selector_agents
    assert len(agents) == 2
    assert all(a.node_id >= cluster.n_servers for a in agents)


def test_static_assignment_pins_clients_to_one_dispatcher():
    cluster = build(
        dispatcher=tier_policy(count=2, assignment="static"),
        n_requests=300, request_timeout=0.5, max_retries=3,
    )
    cluster.run()
    # with several clients hashed across 2 dispatchers, both see work
    assert all(d.forwards > 0 for d in cluster.dispatchers.dispatchers)


# ----------------------------------------------------------------------
# dispatcher crashes: failover vs static assignment
# ----------------------------------------------------------------------

def crash_leg(assignment, seed=11):
    cluster = build(
        # timeout ≫ service time: only the dead dispatcher times out,
        # so healthy dispatchers never accumulate suspicion (a suspect
        # set covering the whole tier fails open to the dead primary)
        dispatcher=tier_policy(count=3, assignment=assignment),
        n_servers=4, n_requests=400, load=0.3, seed=seed,
        request_timeout=0.2, max_retries=6,
    )
    injector = FailureInjector(cluster)
    injector.schedule_dispatcher_crash(0, at=0.01)
    metrics = cluster.run()
    return cluster, metrics


def test_failover_reroutes_around_crashed_dispatcher():
    cluster, metrics = crash_leg("failover")
    assert int(metrics.failed.sum()) == 0
    assert cluster.dispatchers.failovers > 0


def test_static_assignment_fails_requests_pinned_to_dead_dispatcher():
    cluster, metrics = crash_leg("static")
    # a third of the clients are pinned to the dead dispatcher and
    # burn every retry against it
    assert int(metrics.failed.sum()) > 0
    assert cluster.dispatchers.failovers == 0


def test_failover_goodput_beats_static_under_crash():
    _, static = crash_leg("static")
    _, failover = crash_leg("failover")
    assert int(failover.failed.sum()) < int(static.failed.sum())


def test_dispatcher_recovery_restores_routing():
    cluster = build(
        dispatcher=tier_policy(count=2), n_requests=300,
        request_timeout=0.05, max_retries=8,
    )
    injector = FailureInjector(cluster)
    injector.schedule_dispatcher_crash(1, at=0.01)
    injector.schedule_dispatcher_recovery(1, at=0.3)
    cluster.run()
    assert cluster.dispatchers.dispatchers[1].alive
    # the recovered dispatcher served traffic after rejoining
    assert cluster.dispatchers.dispatchers[1].forwards > 0


# ----------------------------------------------------------------------
# tier admission, stale views, breakers
# ----------------------------------------------------------------------

def test_tier_admission_sheds_when_inflight_sojourn_blows_up():
    cluster = build(
        dispatcher=tier_policy(admit_sojourn_target=1e-4),
        load=3.0, n_requests=400, request_timeout=0.05, max_retries=8,
        mean_service=0.02,
    )
    cluster.run()
    counters = cluster.dispatchers.counters()
    assert counters["dispatcher_sheds"] > 0
    assert counters["dispatcher_rejects_sent"] >= counters["dispatcher_sheds"]


def test_view_lag_delays_dispatcher_availability_views():
    """With a large view lag the tier keeps selecting a crashed server
    long after fresh views would have dropped it."""
    def leg(view_lag, seed=7):
        cluster = build(
            dispatcher=tier_policy(view_lag=view_lag),
            n_servers=4, n_requests=300, seed=seed,
            availability={"refresh": 0.02, "ttl": 0.06},
            request_timeout=0.05, max_retries=8,
        )
        FailureInjector(cluster).schedule_crash(1, at=0.05)
        cluster.run()
        return cluster.dispatchers.timeouts_charged

    assert leg(view_lag=0.5) > leg(view_lag=0.0)


def test_breakers_open_against_failing_server():
    cluster = build(
        dispatcher=tier_policy(breaker_threshold=1, breaker_cooldown=5.0),
        n_servers=4, n_requests=300,
        request_timeout=0.05, max_retries=8,
    )
    FailureInjector(cluster).schedule_crash(2, at=0.02)
    metrics = cluster.run()
    counters = cluster.dispatchers.counters()
    assert counters["dispatcher_breaker_opens"] > 0
    # breakers steer retries away from the dead server: no failures
    assert int(metrics.failed.sum()) == 0


# ----------------------------------------------------------------------
# chaos integration
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"dispatcher_storms": -1},
        {"dispatcher_storm_size": -1},
        {"dispatcher_storm_frac": 1.5},
        {"dispatcher_partitions": -2},
        {"dispatcher_partition_frac": -0.1},
    ],
)
def test_chaos_spec_rejects_bad_dispatcher_fields(kwargs):
    # dispatcher partitions are gone (no producer ever scheduled one):
    # naming their knobs is an unknown keyword
    known = set(kwargs) <= ChaosSpec.field_names()
    with pytest.raises(ValueError if known else TypeError):
        ChaosSpec(**kwargs)


def test_dispatcher_chaos_requires_tier():
    cluster = build()
    with pytest.raises(ValueError):
        ChaosInjector(cluster, spec=ChaosSpec(dispatcher_storms=1))


def test_dispatcher_storm_crashes_and_recovers_dispatchers():
    cluster = build(
        dispatcher=tier_policy(count=3, assignment="failover"),
        n_requests=400, request_timeout=0.05, max_retries=8,
    )
    cluster.install("chaos", ChaosInjector(
        cluster,
        spec=ChaosSpec(
            dispatcher_storms=2, dispatcher_storm_size=1,
            dispatcher_storm_frac=0.2,
        ),
    ))
    metrics = cluster.run()
    kinds = [kind for _, kind, _ in cluster.chaos.chaos_log]
    assert kinds.count("dispatcher_crash") == 2
    assert kinds.count("dispatcher_recover") == 2
    # failover keeps the run healthy through both storms
    assert int(metrics.failed.sum()) == 0
    # every dispatcher is back up at the end
    assert all(d.alive for d in cluster.dispatchers.dispatchers)


def test_dispatcher_storm_always_leaves_a_survivor():
    cluster = build(
        dispatcher=tier_policy(count=2, assignment="failover"),
        n_requests=200, request_timeout=0.05, max_retries=8,
    )
    cluster.install("chaos", ChaosInjector(
        cluster,
        # ask for a storm bigger than the tier: it must clamp to K-1
        spec=ChaosSpec(dispatcher_storms=1, dispatcher_storm_size=5),
    ))
    cluster.run()
    crashes = [d for _, kind, d in cluster.chaos.chaos_log
               if kind == "dispatcher_crash"]
    assert len(crashes) == 1

"""Tests for the overload-control subsystem (DESIGN.md §12).

Covers the policy value object, the per-server controller state machine
(EWMA estimator, grace interval, shed jitter, withdrawal/rejoin), the
fast-reject NACK flow end-to-end, the rejection-exclusion fix in
candidate filtering, REJECT-as-breaker-signal in the reliability layer,
the server_max_queue × reliability interplay (hedge copies never
double-count; a saturated cluster fails fast), and the zero-overhead
guarantee: a cluster built without a policy (or with the all-default
policy) is bit-identical to the pre-overload code paths.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import (
    OverloadController,
    OverloadPolicy,
    ReliabilityPolicy,
    Request,
    ServiceCluster,
)
from repro.core import RandomPolicy
from repro.experiments.runner import assemble
from repro.net.message import MessageKind
from repro.sim.calendar import make_simulator


def build(policy=None, n_servers=4, n_requests=200, load=0.5, seed=3,
          mean_service=0.01, overload=None, reliability=None, **kwargs):
    """A small cluster with the ``overload`` / ``reliability`` policies
    (``None``: not installed) installed."""
    cluster = ServiceCluster(
        n_servers=n_servers, policy=policy or RandomPolicy(), seed=seed, **kwargs
    )
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    return assemble(cluster, gaps, services, **installs(overload, reliability))


def installs(overload, reliability):
    """The install knobs of the policies given (``None``: left out)."""
    given = {"overload": overload, "reliability": reliability}
    return {slot: asdict(policy) for slot, policy in given.items() if policy is not None}


def enabled_policy(**overrides):
    values = dict(sojourn_target=0.05, interval=0.01)
    values.update(overrides)
    return OverloadPolicy(**values)


class FakeSim:
    """Just enough simulator for controller unit tests: a clock."""

    def __init__(self):
        self.now = 0.0


def controller(policy=None, workers=1, rng=None):
    return OverloadController(
        policy or enabled_policy(), FakeSim(), workers=workers, rng=rng
    )


def observe(ctrl, elapsed, queue_length=0):
    """Feed one completed service of duration ``elapsed`` into the EWMA."""
    request = Request(index=0, client_id=0, service_time=elapsed, arrival_time=0.0)
    request.start_time = ctrl.sim.now - elapsed
    ctrl.observe_completion(request, queue_length)


# ----------------------------------------------------------------------
# OverloadPolicy value object
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"sojourn_target": 0.0},
        {"sojourn_target": -0.1},
        {"sojourn_target": 0.1, "interval": 0.0},
        {"sojourn_target": 0.1, "ewma_alpha": 0.0},
        {"sojourn_target": 0.1, "ewma_alpha": 1.5},
        {"sojourn_target": 0.1, "shed_jitter": -0.1},
        {"sojourn_target": 0.1, "shed_jitter": 1.0},
        {"sojourn_target": 0.1, "withdraw_after": -1.0},
    ],
)
def test_policy_validation(kwargs):
    with pytest.raises(ValueError):
        OverloadPolicy(**kwargs)


def test_default_policy_is_disabled():
    assert not OverloadPolicy().enabled


def test_sojourn_target_enables_the_policy():
    assert OverloadPolicy(sojourn_target=0.1).enabled


# ----------------------------------------------------------------------
# OverloadController state machine
# ----------------------------------------------------------------------

def test_controller_requires_enabled_policy():
    with pytest.raises(ValueError, match="enabled"):
        OverloadController(OverloadPolicy(), FakeSim())


def test_shed_jitter_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        OverloadController(enabled_policy(shed_jitter=0.1), FakeSim())


def test_cold_estimator_admits_everything():
    ctrl = controller()
    assert ctrl.ewma_service == 0.0
    assert ctrl.admit(10_000)
    assert not ctrl.shedding


def test_ewma_seeds_then_smooths():
    ctrl = controller(enabled_policy(ewma_alpha=0.5))
    observe(ctrl, 0.02)
    assert ctrl.ewma_service == pytest.approx(0.02)
    observe(ctrl, 0.04)
    assert ctrl.ewma_service == pytest.approx(0.03)  # 0.02 + 0.5*(0.04-0.02)


def test_estimated_delay_scales_with_queue_and_workers():
    ctrl = controller(workers=2)
    observe(ctrl, 0.02)
    assert ctrl.estimated_delay(6) == pytest.approx(6 * 0.02 / 2)


def test_grace_interval_before_shedding():
    """The estimate must stay above target for `interval` first."""
    ctrl = controller(enabled_policy(sojourn_target=0.05, interval=0.01))
    observe(ctrl, 0.02)
    assert ctrl.admit(10)  # above target, but inside the grace interval
    assert not ctrl.shedding
    ctrl.sim.now += 0.02
    assert not ctrl.admit(10)  # sustained: shedding starts
    assert ctrl.shedding
    assert ctrl.shed_count == 1


def test_recovery_is_immediate_on_low_estimate():
    ctrl = controller(enabled_policy(sojourn_target=0.05, interval=0.01))
    observe(ctrl, 0.02)
    ctrl.admit(10)
    ctrl.sim.now += 0.02
    assert not ctrl.admit(10)
    assert ctrl.admit(1)  # estimate back under target: admit + reset
    assert not ctrl.shedding
    ctrl.sim.now += 0.001
    assert ctrl.admit(10)  # the grace interval starts over


def test_shed_jitter_admits_a_fraction():
    ctrl = OverloadController(
        enabled_policy(shed_jitter=0.5), FakeSim(),
        rng=np.random.default_rng(0),
    )
    observe(ctrl, 0.02)
    ctrl.admit(10)
    ctrl.sim.now += 0.02
    admitted = sum(ctrl.admit(10) for _ in range(400))
    assert ctrl.jitter_admits == admitted
    assert ctrl.shed_count == 400 - admitted
    assert 100 < admitted < 300  # ~50% probe traffic


def test_withdraw_after_sustained_shedding_then_rejoin():
    ctrl = controller(enabled_policy(
        sojourn_target=0.05, interval=0.01, withdraw_after=0.05,
    ))
    calls = []
    ctrl.on_withdraw = lambda: calls.append("withdraw")
    ctrl.on_rejoin = lambda: calls.append("rejoin")
    observe(ctrl, 0.02)
    ctrl.admit(10)
    ctrl.sim.now += 0.02
    assert not ctrl.admit(10)
    assert not ctrl.withdrawn  # shedding, but not long enough to withdraw
    ctrl.sim.now += 0.05
    assert not ctrl.admit(10)
    assert ctrl.withdrawn
    assert calls == ["withdraw"]
    # A withdrawn server sees no arrivals: the completion path is the
    # recovery detector while the backlog drains.
    observe(ctrl, 0.02, queue_length=1)
    assert not ctrl.withdrawn
    assert calls == ["withdraw", "rejoin"]
    assert ctrl.counters() == {
        "requests_shed": 2,
        "shed_jitter_admits": 0,
        "overload_withdrawals": 1,
        "overload_rejoins": 1,
    }


def test_completion_path_tracks_overload_without_arrivals():
    """observe_completion starts the above-target clock too (a server
    can go overloaded while only draining, e.g. after a speed drop)."""
    ctrl = controller(enabled_policy(sojourn_target=0.05, interval=0.01))
    observe(ctrl, 0.02, queue_length=10)  # estimate now above target
    assert ctrl._above_since is not None
    ctrl.sim.now += 0.02
    assert not ctrl.admit(10)


# ----------------------------------------------------------------------
# cluster wiring: installation + zero-overhead-off guarantee
# ----------------------------------------------------------------------

def test_disabled_policy_installs_no_controllers():
    cluster = build(overload=OverloadPolicy())
    assert cluster.overload is None
    assert all(server.overload is None for server in cluster.servers)
    cluster = build(overload=None)
    assert cluster.overload is None


def test_enabled_policy_installs_per_server_controllers():
    cluster = build(overload=enabled_policy())
    assert cluster.overload is not None
    assert all(server.overload is not None for server in cluster.servers)
    # No jitter -> no RNG substream is ever created (zero draws).
    assert all(server.overload.rng is None for server in cluster.servers)
    jittered = build(overload=enabled_policy(shed_jitter=0.1))
    assert all(server.overload.rng is not None for server in jittered.servers)


def test_disabled_policy_is_bit_identical_to_no_policy():
    """The all-default policy must take exactly the legacy code paths."""
    baseline = build(seed=17, n_requests=400, request_timeout=0.5, max_retries=3)
    disabled = build(
        seed=17, n_requests=400, request_timeout=0.5, max_retries=3,
        overload=OverloadPolicy(),
    )
    a = baseline.run()
    b = disabled.run()
    assert np.array_equal(a.response_time, b.response_time)
    assert np.array_equal(a.server_id, b.server_id)
    assert baseline.sim.events_executed == disabled.sim.events_executed


def test_overload_counters_shape():
    plain = build(server_max_queue=2)
    assert set(plain.overload_counters()) == {"requests_rejected"}
    enabled = build(overload=enabled_policy())
    assert set(enabled.overload_counters()) == {
        "requests_rejected", "requests_shed", "shed_jitter_admits",
        "overload_withdrawals", "overload_rejoins", "rejects_sent",
        "stale_rejects_ignored",
    }


# ----------------------------------------------------------------------
# fast-reject NACKs
# ----------------------------------------------------------------------

def saturating_build(load=4.0, overload=None, reliability=None, seed=11,
                     n_requests=300, max_retries=6):
    """A deliberately undersized cluster: static bound 2, heavy load."""
    return build(
        n_servers=2, load=load, seed=seed, n_requests=n_requests,
        server_max_queue=2, request_timeout=0.2, max_retries=max_retries,
        overload=overload, reliability=reliability,
    )


def test_fast_reject_sends_nacks_over_the_transport():
    # A huge sojourn target: only the *static* bound rejects, proving
    # fast_reject covers static rejections once the controller exists.
    cluster = saturating_build(overload=enabled_policy(sojourn_target=100.0))
    metrics = cluster.run()
    assert cluster.rejects_sent > 0
    assert cluster.network.message_counts[MessageKind.REJECT] == cluster.rejects_sent
    rejected = sum(server.rejected_count for server in cluster.servers)
    assert rejected == cluster.rejects_sent  # every rejection NACKed
    # Every request still reached a terminal outcome exactly once.
    done = np.isfinite(metrics.response_time).sum() + metrics.failed.sum()
    assert done == cluster.n_requests


def test_fast_reject_off_keeps_the_wire_silent():
    cluster = saturating_build(
        overload=enabled_policy(sojourn_target=100.0, fast_reject=False)
    )
    cluster.run()
    assert sum(server.rejected_count for server in cluster.servers) > 0
    assert cluster.rejects_sent == 0
    assert cluster.network.message_counts.get(MessageKind.REJECT, 0) == 0


def test_naive_cluster_never_sends_nacks():
    cluster = saturating_build()  # static bound only, no controller
    cluster.run()
    assert sum(server.rejected_count for server in cluster.servers) > 0
    assert cluster.network.message_counts.get(MessageKind.REJECT, 0) == 0


def test_adaptive_shedding_rejects_under_sustained_overload():
    cluster = build(
        n_servers=2, load=3.0, seed=5, n_requests=400,
        request_timeout=0.3, max_retries=8,
        overload=enabled_policy(sojourn_target=0.02, interval=0.005),
    )
    cluster.run()
    counters = cluster.overload_counters()
    assert counters["requests_shed"] > 0
    assert counters["requests_rejected"] >= counters["requests_shed"]


# ----------------------------------------------------------------------
# rejection exclusion in candidate filtering (the reselect fix)
# ----------------------------------------------------------------------

def test_rejecting_server_excluded_during_reselect():
    cluster = build(n_servers=3)
    client = cluster.clients[0]
    request = Request(index=0, client_id=client.node_id,
                      service_time=0.01, arrival_time=0.0)
    assert cluster.available_servers(client) == [0, 1, 2]
    request.last_rejected_by = 1
    cluster._selecting_request = request
    assert cluster.available_servers(client) == [0, 2]
    cluster._selecting_request = None
    assert cluster.available_servers(client) == [0, 1, 2]


def test_exclusion_yields_when_no_alternative_exists():
    cluster = build(n_servers=1)
    client = cluster.clients[0]
    request = Request(index=0, client_id=client.node_id,
                      service_time=0.01, arrival_time=0.0)
    request.last_rejected_by = 0
    cluster._selecting_request = request
    assert cluster.available_servers(client) == [0]


def test_dispatch_clears_the_exclusion():
    cluster = build(n_servers=2)
    client = cluster.clients[0]
    request = Request(index=0, client_id=client.node_id,
                      service_time=0.01, arrival_time=0.0)
    request.last_rejected_by = 1
    cluster.dispatch(client, request, 0)
    assert request.last_rejected_by == -1


# ----------------------------------------------------------------------
# REJECT as a reliability signal (breakers, hedges)
# ----------------------------------------------------------------------

def test_rejects_feed_circuit_breakers():
    cluster = build(reliability=ReliabilityPolicy(
        breaker_threshold=2, breaker_cooldown=0.5,
    ))
    engine = cluster.reliability
    request = Request(index=0, client_id=cluster.clients[0].node_id,
                      service_time=0.01, arrival_time=0.0)
    engine.on_reject(request, 1)
    assert engine.breakers[1].state(cluster.sim.now) == "closed"
    engine.on_reject(request, 1)
    assert engine.breakers[1].state(cluster.sim.now) == "open"
    assert engine.rejects_signaled == 2
    assert engine.counters()["rejects_signaled"] == 2.0


def test_rejecting_server_recorded_for_hedge_exclusion():
    cluster = build(reliability=ReliabilityPolicy(hedge_quantile=0.9))
    engine = cluster.reliability
    client = cluster.clients[0]
    request = Request(index=0, client_id=client.node_id,
                      service_time=0.01, arrival_time=0.0)
    engine.on_dispatch(client, request, 2)
    engine.on_reject(request, 3)
    assert engine._states[request.index].rejected_servers == {3}


# ----------------------------------------------------------------------
# server_max_queue × reliability (hedges + saturation), both engines
# ----------------------------------------------------------------------

HEDGING = ReliabilityPolicy(
    hedge_quantile=0.5, breaker_threshold=4,
    breaker_cooldown=0.1,
)


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize(
    "reliability", [None, HEDGING], ids=["naive", "hedged"]
)
def test_saturated_cluster_terminal_outcomes_count_once(engine, reliability):
    """Rejected primaries and hedge copies must never double-count: with
    admission control biting hard, every request reaches exactly one
    terminal outcome and the run terminates under both engines."""
    cluster = build(
        n_servers=2, load=4.0, seed=11, n_requests=300,
        server_max_queue=2, request_timeout=0.2, max_retries=3,
        overload=enabled_policy(sojourn_target=100.0),
        reliability=reliability, engine=engine,
    )
    metrics = cluster.run()
    completed = int(np.isfinite(metrics.response_time).sum())
    failed = int(metrics.failed.sum())
    assert completed + failed == cluster.n_requests
    assert cluster._completed == cluster.n_requests
    assert sum(s.rejected_count for s in cluster.servers) > 0
    # Served completions can only exceed recorded successes via stale
    # (already-terminal) responses — never the other way around.
    assert sum(s.completed_count for s in cluster.servers) >= completed


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize(
    "reliability",
    [None, ReliabilityPolicy(breaker_threshold=3, breaker_cooldown=0.05)],
    ids=["naive", "breakers"],
)
def test_fully_saturated_cluster_fails_fast(engine, reliability):
    """When every server is full, excess requests burn NACK round trips
    (sub-ms each), not timeout budgets: no client timeout is even
    configured, yet every excess request terminates via NACKed retries
    alone, within milliseconds of arriving."""
    n_requests = 40
    cluster = ServiceCluster(
        n_servers=2, policy=RandomPolicy(), seed=7,
        max_retries=3, server_max_queue=1, engine=engine,
    )
    # Two long jobs occupy both servers; the rest arrive into full
    # queues and must fail fast via NACKed retries.
    gaps = np.full(n_requests, 1e-5)
    services = np.full(n_requests, 5.0)
    assemble(cluster, gaps, services,
             **installs(enabled_policy(sojourn_target=100.0), reliability))
    metrics = cluster.run()
    assert int(metrics.failed.sum()) == n_requests - 2
    assert cluster.request_timeouts_fired == 0
    assert cluster.rejects_sent > 0
    # The run is bounded by the two long services, not timeout chains.
    assert cluster.sim.now == pytest.approx(5.0, abs=0.1)
    # Every failed request exhausted its retry budget via NACKs.
    failed_retries = metrics.retries[metrics.failed]
    assert (failed_retries == 4).all()

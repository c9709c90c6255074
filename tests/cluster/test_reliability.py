"""Tests for the request reliability layer (DESIGN.md §11).

Covers the policy value object, the circuit-breaker state machine, the
deadline/backoff/retry-budget math, candidate filtering, the hedging
lifecycle end-to-end, and the zero-overhead guarantee: a cluster built
without a policy (or with the all-default policy) is bit-identical to
the pre-reliability code paths.
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    ChaosInjector,
    ChaosSpec,
    CircuitBreaker,
    FailureInjector,
    ReliabilityPolicy,
    Request,
    ServiceCluster,
    resilience_counters,
)
from repro.cluster.reliability import BACKOFF_CAP, BACKOFF_JITTER
from repro.core import RandomPolicy, make_policy
from repro.experiments.chaos import hardened_reliability_params
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import assemble
from repro.sim.rng import RngHub


def build(policy=None, n_servers=4, n_requests=200, load=0.5, seed=3, reliability=None,
          **kwargs):
    """A small cluster; ``reliability`` is the knobs for its install."""
    cluster = ServiceCluster(
        n_servers=n_servers, policy=policy or RandomPolicy(), seed=seed, **kwargs
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.01
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    installs = {} if reliability is None else {"reliability": reliability}
    return assemble(cluster, gaps, services, **installs)


# ----------------------------------------------------------------------
# ReliabilityPolicy value object
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"deadline": 0.0},
        {"deadline": -1.0},
        {"backoff_base": -0.001},
        {"backoff_mult": 0.5},
        {"backoff_cap": 0.0},
        {"backoff_jitter": -0.1},
        {"backoff_jitter": 1.5},
        {"retry_budget": 0},
        {"retry_budget_refill": 0.0},
        {"hedge_quantile": 0.0},
        {"hedge_quantile": 1.0},
        {"hedge_min_samples": 0},
        {"hedge_min_samples": 64, "hedge_window": 32},
        {"breaker_threshold": 0},
        {"breaker_cooldown": 0.0},
    ],
)
def test_policy_validation(kwargs):
    # backoff_mult/_cap/_jitter, retry_budget_refill and hedge_min_samples/
    # _window are module constants now: naming one is an unknown keyword
    known = set(kwargs) <= ReliabilityPolicy.field_names()
    with pytest.raises(ValueError if known else TypeError):
        ReliabilityPolicy(**kwargs)


def test_default_policy_disables_everything():
    assert not ReliabilityPolicy().enabled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"deadline": 1.0},
        {"backoff_base": 0.001},
        {"retry_budget": 10},
        {"hedge_quantile": 0.9},
        {"breaker_threshold": 3},
    ],
)
def test_each_mechanism_enables_the_policy(kwargs):
    assert ReliabilityPolicy(**kwargs).enabled


def test_disabled_policy_installs_no_engine():
    cluster = build(reliability={})
    assert cluster.reliability is None
    cluster = build(reliability={"hedge_quantile": None})
    assert cluster.reliability is None


def test_enabled_policy_installs_engine():
    cluster = build(reliability=dict(breaker_threshold=3))
    assert cluster.reliability is not None
    assert set(cluster.reliability.breakers) == set(range(cluster.n_servers))


def test_disabled_policy_is_bit_identical_to_no_policy():
    """The all-default policy must take exactly the legacy code paths."""
    baseline = build(seed=17, n_requests=400, request_timeout=0.5, max_retries=3)
    disabled = build(
        seed=17, n_requests=400, request_timeout=0.5, max_retries=3,
        reliability={},
    )
    a = baseline.run()
    b = disabled.run()
    assert np.array_equal(a.response_time, b.response_time)
    assert np.array_equal(a.server_id, b.server_id)
    assert baseline.sim.events_executed == disabled.sim.events_executed


# ----------------------------------------------------------------------
# circuit breaker state machine
# ----------------------------------------------------------------------

def test_breaker_stays_closed_below_threshold():
    breaker = CircuitBreaker(threshold=3, cooldown=1.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.1)
    assert breaker.state(0.2) == "closed"
    assert breaker.allows(0.2)
    assert breaker.opens == 0


def test_breaker_opens_at_threshold_then_half_opens():
    breaker = CircuitBreaker(threshold=2, cooldown=1.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.5)
    assert breaker.state(0.6) == "open"
    assert not breaker.allows(0.6)
    assert breaker.opens == 1
    # Cooldown elapses: half-open, probing allowed again.
    assert breaker.state(1.6) == "half_open"
    assert breaker.allows(1.6)


def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker(threshold=1, cooldown=1.0)
    breaker.record_failure(0.0)
    assert breaker.state(1.5) == "half_open"
    breaker.record_failure(1.5)
    assert breaker.state(2.0) == "open"
    assert breaker.opens == 2


def test_breaker_success_resets_to_closed():
    breaker = CircuitBreaker(threshold=2, cooldown=1.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.1)
    breaker.record_success(1.2)
    assert breaker.state(1.3) == "closed"
    assert breaker.failures == 0
    # The consecutive-failure count restarts from scratch.
    breaker.record_failure(1.4)
    assert breaker.state(1.5) == "closed"


def test_breaker_failures_while_open_do_not_extend_cooldown():
    breaker = CircuitBreaker(threshold=1, cooldown=1.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.5)  # still open; must not push _open_until out
    assert breaker.state(1.1) == "half_open"
    assert breaker.opens == 1


def test_filter_candidates_ejects_open_breakers():
    cluster = build(reliability=dict(breaker_threshold=1))
    engine = cluster.reliability
    engine.breakers[2].record_failure(0.0)
    assert list(engine.filter_candidates([0, 1, 2, 3])) == [0, 1, 3]
    assert engine.breaker_state(2) == "open"
    assert engine.breaker_state(0) == "closed"


def test_filter_candidates_fails_open_when_all_open():
    cluster = build(reliability=dict(breaker_threshold=1))
    engine = cluster.reliability
    for breaker in engine.breakers.values():
        breaker.record_failure(0.0)
    # Every breaker open: the unfiltered set comes back (a degraded
    # server beats an empty candidate set).
    assert list(engine.filter_candidates([0, 1, 2, 3])) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# deadline budgets, backoff, retry budget
# ----------------------------------------------------------------------

def _request(cluster, index=0, arrival_time=0.0, retries=0):
    request = Request(
        index=index,
        client_id=cluster.clients[0].node_id,
        service_time=0.01,
        arrival_time=arrival_time,
    )
    request.retries = retries
    return request


def test_attempt_timeout_splits_deadline_across_attempts():
    cluster = build(
        request_timeout=0.3, max_retries=4,
        reliability=dict(deadline=1.0),
    )
    engine = cluster.reliability
    # First attempt at t=0: 1.0s budget over 5 attempts, capped by the
    # flat per-attempt timeout.
    assert engine.attempt_timeout(_request(cluster)) == pytest.approx(0.2)
    # Later attempt: fewer attempts left -> a larger share, but never
    # more than the flat request_timeout.
    assert engine.attempt_timeout(_request(cluster, retries=3)) == pytest.approx(0.3)


def test_attempt_timeout_without_flat_timeout():
    cluster = build(
        request_timeout=None, max_retries=4,
        reliability=dict(deadline=1.0),
    )
    assert cluster.reliability.attempt_timeout(
        _request(cluster, retries=3)
    ) == pytest.approx(0.5)


def test_attempt_timeout_floor_when_budget_exhausted():
    cluster = build(reliability=dict(deadline=0.5))
    # A request whose budget already ran out still gets a well-formed
    # (tiny) timer; the retry path then fails it fast.
    request = _request(cluster, arrival_time=-10.0)
    assert cluster.reliability.attempt_timeout(request) > 0.0


def test_should_fail_fast_on_deadline():
    cluster = build(reliability=dict(deadline=0.5))
    engine = cluster.reliability
    assert not engine.should_fail_fast(_request(cluster, arrival_time=0.0))
    assert engine.should_fail_fast(_request(cluster, arrival_time=-1.0))
    assert engine.deadline_exceeded == 1


def test_retry_token_bucket_exhausts_and_refills():
    cluster = build(
        reliability=dict(retry_budget=2)
    )
    engine = cluster.reliability
    client_id = cluster.clients[0].node_id
    assert engine._take_retry_token(client_id)
    assert engine._take_retry_token(client_id)
    assert not engine._take_retry_token(client_id)  # bucket empty at t=0
    # should_fail_fast charges the counter on the same path.
    assert engine.should_fail_fast(_request(cluster))
    assert engine.retry_budget_exhausted == 1


def test_retry_budget_is_per_client():
    cluster = build(
        n_clients=2,
        reliability=dict(retry_budget=1),
    )
    engine = cluster.reliability
    a, b = (client.node_id for client in cluster.clients)
    assert engine._take_retry_token(a)
    assert not engine._take_retry_token(a)
    assert engine._take_retry_token(b)  # b's bucket untouched by a's spend


def test_backoff_disabled_by_default():
    cluster = build(reliability=dict(breaker_threshold=3))
    assert cluster.reliability.backoff_delay(_request(cluster, retries=5)) == 0.0


def test_backoff_exponential_without_jitter():
    cluster = build(seed=5, reliability=dict(backoff_base=0.01))
    engine = cluster.reliability
    # the engine's jitter draws, replayed from the same named substream
    draws = RngHub(5).stream("reliability.backoff")
    for retries, expected in [(1, 0.01), (2, 0.02), (3, 0.04), (10, BACKOFF_CAP)]:
        jitter = 1.0 - BACKOFF_JITTER + BACKOFF_JITTER * float(draws.random())
        delay = engine.backoff_delay(_request(cluster, retries=retries))
        assert delay / jitter == pytest.approx(expected)


def test_backoff_jitter_stays_in_equal_jitter_band():
    cluster = build(reliability=dict(backoff_base=0.01))
    engine = cluster.reliability
    for _ in range(50):
        delay = engine.backoff_delay(_request(cluster, retries=1))
        assert 0.005 - 1e-12 <= delay <= 0.01 + 1e-12


# ----------------------------------------------------------------------
# reselect delay (satellite: no hardcoded 0.1 s fallback)
# ----------------------------------------------------------------------

def test_reselect_delay_falls_back_to_request_timeout():
    cluster = build(request_timeout=0.5)
    assert cluster.reselect_delay == pytest.approx(0.5)


def test_reselect_delay_derives_from_mean_service_time():
    """Regression: the NoCandidates path used a flat 100 ms sleep —
    ~20x the mean service time of a fine-grain request. It now derives
    from the loaded workload when nothing else is configured."""
    cluster = build()  # no request_timeout
    mean_service = float(cluster._service_times.mean())
    assert cluster.reselect_delay == pytest.approx(5.0 * mean_service)
    assert cluster.reselect_delay < 0.1


def test_reselect_delay_validation():
    """The delay is derived, never set: the keyword and the config knob
    are gone, and naming either fails loudly."""
    with pytest.raises(TypeError, match="reselect_delay"):
        ServiceCluster(n_servers=2, policy=RandomPolicy(), reselect_delay=0.02)
    with pytest.raises(ValueError, match="reselect_delay"):
        SimulationConfig(cluster_params={"reselect_delay": 0.02})


# ----------------------------------------------------------------------
# client_for helper (satellite)
# ----------------------------------------------------------------------

def test_client_for_maps_request_back_to_its_client():
    cluster = build(n_clients=3)
    for client in cluster.clients:
        request = Request(
            index=0, client_id=client.node_id, service_time=0.01, arrival_time=0.0
        )
        assert cluster.client_for(request) is client


# ----------------------------------------------------------------------
# integration: breakers, hedging, counters
# ----------------------------------------------------------------------

def _crash_cluster(reliability, seed=7, n_requests=1500, load=0.5):
    cluster = ServiceCluster(
        n_servers=4,
        n_clients=2,
        policy=make_policy("random"),
        seed=seed,
        request_timeout=0.05,
        max_retries=20,
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.005
    gaps = rng.exponential(mean_service / (4 * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    return assemble(
        cluster, gaps, services, availability={"refresh": 0.05, "ttl": 0.15},
        reliability=reliability,
    )


def test_breaker_trips_on_crashed_server():
    cluster = _crash_cluster({"breaker_threshold": 2})
    FailureInjector(cluster).schedule_crash(1, at=0.2)
    metrics = cluster.run()
    engine = cluster.reliability
    # The dead server's breaker tripped at least once; the healthy
    # servers' breakers never did under this light load.
    assert engine.breakers[1].opens >= 1
    assert metrics.failed.sum() == 0
    assert engine.breaker_opens() == sum(b.opens for b in engine.breakers.values())


def test_server_loss_retries_counter():
    cluster = _crash_cluster({}, load=0.9)
    injector = ChaosInjector(cluster, spec=ChaosSpec())
    injector.schedule_crash(1, at=0.2)
    assert cluster.server_loss_retries == 0
    metrics = cluster.run()
    assert cluster.server_loss_retries > 0
    counters = resilience_counters(injector, metrics)
    assert counters["server_loss_retries"] == float(cluster.server_loss_retries)


def test_hedging_end_to_end_exactly_once():
    cluster = _crash_cluster({"hedge_quantile": 0.5}, n_requests=1200)
    ChaosInjector(cluster, spec=ChaosSpec(loss=0.08))
    metrics = cluster.run()
    engine = cluster.reliability
    assert engine.hedges_launched > 0
    # Hedge accounting is conservative: every launched hedge either
    # won, lost, or died on a dead/rejecting server — no leaks.
    settled = engine.hedge_wins + engine.hedge_losses + engine.clones_lost
    assert settled <= engine.hedges_launched
    # Exactly one terminal outcome per request, hedges notwithstanding.
    assert (np.isfinite(metrics.response_time) ^ metrics.failed).all()
    assert cluster._completed == cluster.n_requests
    # No dangling per-request state after the run.
    assert not engine._states


def test_hedged_run_is_deterministic():
    params = hardened_reliability_params()
    runs = []
    for _ in range(2):
        cluster = _crash_cluster(params, n_requests=1000)
        ChaosInjector(cluster, spec=ChaosSpec(loss=0.05, storms=1, storm_size=2))
        runs.append(cluster.run())
    assert np.array_equal(runs[0].response_time, runs[1].response_time)
    assert np.array_equal(runs[0].server_id, runs[1].server_id)


def test_reliability_counters_surface_in_resilience_counters():
    cluster = _crash_cluster({"hedge_quantile": 0.5}, n_requests=800)
    injector = ChaosInjector(cluster, spec=ChaosSpec(loss=0.05))
    metrics = cluster.run()
    counters = resilience_counters(injector, metrics)
    for key in (
        "hedges_launched",
        "hedge_wins",
        "hedge_losses",
        "hedge_clones_lost",
        "breaker_opens",
        "retry_budget_exhausted",
        "deadline_exceeded",
    ):
        assert key in counters
    assert counters["hedges_launched"] == float(cluster.reliability.hedges_launched)

"""Circuit-breaker half-open races (ISSUE 10 satellite).

The open -> half-open transition is evaluated lazily at query time, so
the interesting races live at *exact* timestamp boundaries: a probe
outcome recorded at precisely ``open_until``, and a success and a
failure landing at the same instant (probe response and attempt timeout
in the same event batch). The state machine must resolve these purely
by call order — which the engines make deterministic — and the oracle's
snapshot rule (no cooldown truncation, no closed->half-open shortcut)
must hold across any legal sequence.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.reliability import CircuitBreaker
from repro.experiments import SimulationConfig, run_simulation


def _tripped_breaker(threshold=3, cooldown=0.5):
    breaker = CircuitBreaker(threshold=threshold, cooldown=cooldown)
    for _ in range(threshold):
        breaker.record_failure(1.0)
    assert breaker.state(1.0) == "open"
    assert breaker._open_until == pytest.approx(1.0 + cooldown)
    return breaker


def test_half_open_begins_exactly_at_cooldown_boundary():
    breaker = _tripped_breaker(cooldown=0.5)
    boundary = breaker._open_until
    assert breaker.state(boundary - 1e-12) == "open"
    assert not breaker.allows(boundary - 1e-12)
    # at t == open_until the probe window opens (>= comparison)
    assert breaker.state(boundary) == "half_open"
    assert breaker.allows(boundary)


def test_same_timestamp_success_then_failure():
    """Probe success then an old attempt's timeout at the same instant:
    the success closes the breaker, the failure then counts as one
    *closed-state* failure — no immediate re-open below threshold."""
    breaker = _tripped_breaker(threshold=3, cooldown=0.5)
    boundary = breaker._open_until
    breaker.record_success(boundary)
    assert breaker.state(boundary) == "closed"
    breaker.record_failure(boundary)
    assert breaker.state(boundary) == "closed"
    assert breaker.failures == 1
    assert breaker.opens == 1


def test_same_timestamp_failure_then_success():
    """Opposite order: the failed probe re-opens for a full cooldown,
    and the success (a late response from the pre-open era) then closes
    the breaker again — order decides, deterministically."""
    breaker = _tripped_breaker(threshold=3, cooldown=0.5)
    boundary = breaker._open_until
    breaker.record_failure(boundary)
    assert breaker.opens == 2
    assert breaker._open_until == pytest.approx(boundary + 0.5)
    # state at the same timestamp is open again: no probe admitted
    assert breaker.state(boundary) == "open"
    assert not breaker.allows(boundary)
    breaker.record_success(boundary)
    assert breaker.state(boundary) == "closed"


def test_failure_while_open_is_absorbed():
    """Late failures from attempts sent before the trip must not extend
    the cooldown or bump the open count."""
    breaker = _tripped_breaker(threshold=3, cooldown=0.5)
    horizon = breaker._open_until
    breaker.record_failure(1.2)
    assert breaker._open_until == pytest.approx(horizon)
    assert breaker.opens == 1


def test_half_open_probe_failure_reopens_full_cooldown():
    breaker = _tripped_breaker(threshold=3, cooldown=0.5)
    probe_time = breaker._open_until + 0.1
    breaker.record_failure(probe_time)
    assert breaker.opens == 2
    assert breaker._open_until == pytest.approx(probe_time + 0.5)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["fail", "ok"]), st.floats(0.0, 0.05)),
        min_size=1,
        max_size=60,
    ),
    threshold=st.integers(1, 5),
    cooldown=st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_breaker_state_machine_properties(ops, threshold, cooldown):
    """For any op sequence at non-decreasing times: the breaker never
    admits while open, opens are monotone, and the failure count stays
    inside [0, threshold]."""
    breaker = CircuitBreaker(threshold=threshold, cooldown=cooldown)
    now = 0.0
    opens_before = 0
    for op, gap in ops:
        now += gap
        if breaker.state(now) == "open":
            assert not breaker.allows(now)
        else:
            assert breaker.allows(now)
        if op == "fail":
            breaker.record_failure(now)
        else:
            breaker.record_success(now)
        assert 0 <= breaker.failures <= breaker.threshold
        assert breaker.opens >= opens_before
        opens_before = breaker.opens
        if breaker.state(now) == "open":
            # a fresh trip always honours the full cooldown from now
            assert breaker._open_until >= now or math.isinf(breaker._open_until)


def test_breaker_races_engine_invariant():
    """Cluster-level: a breaker-heavy run (crashes force trips, probes,
    and same-batch success/timeout collisions) is bit-identical across
    engines, with the oracle's breaker-legality scan enabled."""
    from repro.experiments.chaos import chaos_cluster_params, chaos_params_for

    config = SimulationConfig(
        policy="random",
        load=0.9,
        n_servers=4,
        n_requests=900,
        seed=31,
        cluster_params=chaos_cluster_params(),
        chaos_params=chaos_params_for(1.5, n_servers=4),
        reliability_params={"breaker_threshold": 2, "breaker_cooldown": 0.1},
        verify_params={"enabled": True, "check_interval": 2},
    )
    heap = run_simulation(config.with_updates(engine="heap"))
    calendar = run_simulation(config.with_updates(engine="calendar"))
    assert heap.chaos_counters["breaker_opens"] > 0
    assert heap.digest() == calendar.digest()

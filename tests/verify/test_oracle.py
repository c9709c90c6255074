"""InvariantOracle: zero-overhead when off, bit-identical when on.

The oracle is a pure observer — it draws no randomness and schedules no
events — so the acceptance bar is strict: a verify-enabled run must be
bit-identical to the same config with the oracle off, and bit-identical
across the heap and calendar engines. The lifecycle checks themselves
are unit-tested against hand-driven state.
"""


import pytest

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.runner import build_cluster
from repro.verify import InvariantOracle, InvariantViolation

#: a fully-composed config: every subsystem the oracle scans is live
COMPOSED = SimulationConfig(
    policy="least_connections",
    load=1.0,
    n_servers=6,
    n_requests=400,
    seed=7,
    cluster_params={
        "availability": True,
        "availability_refresh": 0.2,
        "availability_ttl": 0.6,
        "request_timeout": 0.3,
        "max_retries": 3,
    },
    chaos_params={"loss": 0.05, "jitter_mean": 0.002},
    reliability_params={"breaker_threshold": 3, "hedge_quantile": 0.95},
    overload_params={"sojourn_target": 0.1, "interval": 0.05},
    dispatcher_params={"count": 2, "assignment": "failover"},
)


def _run(config):
    return run_simulation(config)


def test_oracle_off_by_default():
    cluster, _horizon = build_cluster(SimulationConfig(n_requests=10))
    assert cluster.oracle is None


def test_enabled_false_leaves_cluster_unhooked():
    cluster, _horizon = build_cluster(
        SimulationConfig(n_requests=10, verify_params={"enabled": False})
    )
    assert cluster.oracle is None


def test_check_interval_must_be_positive():
    cluster, _horizon = build_cluster(SimulationConfig(n_requests=10))
    with pytest.raises(ValueError):
        InvariantOracle(cluster, check_interval=0)


def test_oracle_on_is_bit_identical_to_off():
    base = COMPOSED
    plain = _run(base)
    checked = _run(base.with_updates(verify_params={"enabled": True, "check_interval": 2}))
    assert plain.digest() == checked.digest()


def test_oracle_on_is_engine_invariant():
    on = COMPOSED.with_updates(verify_params={"enabled": True, "check_interval": 4})
    heap = _run(on.with_updates(engine="heap"))
    calendar = _run(on.with_updates(engine="calendar"))
    assert heap.digest() == calendar.digest()


def test_verify_params_rejected_by_fast_engine():
    from repro.sim.fastpath import fastpath_violations

    config = COMPOSED.with_updates(verify_params={"enabled": True})
    assert any("verify" in v for v in fastpath_violations(config))


def test_verify_params_participate_in_cache_key():
    from repro.experiments.cache import config_key

    base = SimulationConfig(n_requests=50)
    on = base.with_updates(verify_params={"enabled": True})
    assert config_key(base) != config_key(on)


# ----------------------------------------------------------------------
# lifecycle checks, hand-driven
# ----------------------------------------------------------------------


class _Handle:
    """Minimal stand-in for :class:`repro.sim.engine.EventHandle`."""

    def __init__(self, seq, cancelled=False):
        self.seq = seq
        self.cancelled = cancelled


def _fresh_oracle(n_requests=10):
    cluster, _horizon = build_cluster(SimulationConfig(n_requests=n_requests))
    return InvariantOracle(cluster, check_interval=10_000)


def _request(cluster, index=0):
    from repro.cluster.request import Request

    return Request(index=index, client_id=0, service_time=0.05, arrival_time=0.0)


def test_clock_backwards_raises():
    oracle = _fresh_oracle()
    oracle._on_event(1.0, _Handle(seq=1))
    with pytest.raises(InvariantViolation, match="time ran backwards"):
        oracle._on_event(0.5, _Handle(seq=2))


def test_clock_tie_break_order_enforced():
    oracle = _fresh_oracle()
    oracle._on_event(1.0, _Handle(seq=5))
    with pytest.raises(InvariantViolation, match="tie-break"):
        oracle._on_event(1.0, _Handle(seq=4))
    # strictly later time resets the seq watermark
    oracle2 = _fresh_oracle()
    oracle2._on_event(1.0, _Handle(seq=5))
    oracle2._on_event(2.0, _Handle(seq=1))


def test_cancelled_event_execution_raises():
    oracle = _fresh_oracle()
    with pytest.raises(InvariantViolation, match="cancelled event"):
        oracle._on_event(1.0, _Handle(seq=1, cancelled=True))


def test_double_arrival_raises():
    oracle = _fresh_oracle()
    request = _request(oracle.cluster)
    oracle.on_arrival(request)
    with pytest.raises(InvariantViolation, match="arrived twice"):
        oracle.on_arrival(request)


def test_double_terminal_raises():
    oracle = _fresh_oracle()
    request = _request(oracle.cluster)
    oracle.on_arrival(request)
    request.done = True
    request.response_time = 0.01
    oracle.on_terminal(request, winner=request)
    with pytest.raises(InvariantViolation, match="second\\s+terminal"):
        oracle.on_terminal(request, winner=request)


def test_dispatch_after_terminal_raises():
    oracle = _fresh_oracle()
    request = _request(oracle.cluster)
    oracle.on_arrival(request)
    request.done = True
    request.failed = True
    oracle.on_terminal(request, winner=None)
    with pytest.raises(InvariantViolation, match="after\\s+terminal"):
        oracle.on_dispatch(None, request, server_id=0)


def test_dispatch_out_of_range_raises():
    oracle = _fresh_oracle()
    request = _request(oracle.cluster)
    oracle.on_arrival(request)
    with pytest.raises(InvariantViolation, match="out-of-range"):
        oracle.on_dispatch(None, request, server_id=oracle.cluster.n_servers)


def test_terminal_without_arrival_raises():
    oracle = _fresh_oracle()
    request = _request(oracle.cluster)
    request.done = True
    request.response_time = 0.01
    with pytest.raises(InvariantViolation, match="without arriving"):
        oracle.on_terminal(request, winner=request)


def test_trace_hook_chains_not_clobbers():
    cluster, _horizon = build_cluster(SimulationConfig(n_requests=10))
    calls = []
    cluster.sim.trace = lambda now, handle: calls.append(now)
    oracle = InvariantOracle(cluster, check_interval=10_000)
    cluster.sim.trace(1.5, _Handle(seq=1))
    assert calls == [1.5]
    assert oracle.events_seen == 1

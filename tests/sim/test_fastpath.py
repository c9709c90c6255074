"""Unit tests for the vectorized batch engine (DESIGN.md §13).

Distribution-level agreement with the heap engine is covered by
``tests/experiments/test_distribution_parity.py`` and the property
suite; this file pins the contract around it: the capability check
fails loudly, runs are deterministic, random is *exactly* the heap
engine's arithmetic, and the accounting (messages, counters,
occupancy) is self-consistent.
"""

import math

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    build_cluster,
    run_simulation,
    run_with_telemetry,
)
from repro.net.latency import PAPER_NET
from repro.sim.fastpath import (
    FASTPATH_POLICIES,
    FastpathUnsupportedError,
    fastpath_violations,
    run_fastpath,
)
from repro.sim.rng import RngHub
from repro.workload.workloads import make_workload


def _config(**overrides):
    defaults = dict(
        policy="random",
        workload="poisson_exp",
        load=0.8,
        n_servers=8,
        n_requests=2_000,
        seed=0,
        engine="fast",
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# capability check: loud fallback, never silent
# ----------------------------------------------------------------------
def test_supported_configs_have_no_violations():
    for policy, params in [
        ("random", {}),
        ("polling", {"poll_size": 3}),
        ("broadcast", {"mean_interval": 0.01}),
        ("stale_jsq", {"update_interval": 0.02}),
    ]:
        config = _config(policy=policy, policy_params=params)
        assert fastpath_violations(config) == []


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(model="prototype"), "model"),
        (dict(policy="jiq"), "policy"),
        (dict(workers=2), "workers"),
        (dict(server_speeds=(1.0,) * 8), "server_speeds"),
        (dict(cluster_params={"availability": True}), "cluster_params.availability"),
        (dict(chaos_params={"loss": 0.01}), "chaos_params"),
        (dict(telemetry={"spans": True}), "telemetry"),
        (dict(reliability_params={"deadline": 1.0}), "reliability_params"),
        (dict(overload_params={"sojourn_target": 0.1}), "overload_params"),
        (
            dict(
                policy="stale_jsq",
                policy_params={"update_interval": 0.02, "local_increment": True},
            ),
            "local_increment",
        ),
    ],
)
def test_unsupported_knobs_raise_and_name_the_knob(overrides, fragment):
    config = _config(**overrides)
    with pytest.raises(FastpathUnsupportedError, match=fragment):
        run_fastpath(config)


def test_record_server_queues_is_not_a_violation():
    config = _config(cluster_params={"record_server_queues": True})
    assert fastpath_violations(config) == []


def test_build_cluster_refuses_fast_engine():
    with pytest.raises(ValueError, match="fast"):
        build_cluster(_config())


def test_run_with_telemetry_refuses_fast_engine():
    with pytest.raises(ValueError, match="fast"):
        run_with_telemetry(_config())


def test_config_accepts_fast_engine_and_rejects_unknown():
    assert _config().engine == "fast"
    with pytest.raises(ValueError, match="engine"):
        _config(engine="warp")


# ----------------------------------------------------------------------
# determinism + exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy, params", [
    ("random", {}),
    ("polling", {"poll_size": 2}),
    ("broadcast", {"mean_interval": 0.01}),
    ("stale_jsq", {"update_interval": 0.02}),
])
def test_same_seed_is_bit_deterministic(policy, params):
    config = _config(policy=policy, policy_params=params)
    a = run_fastpath(config)
    b = run_fastpath(config)
    np.testing.assert_array_equal(a.metrics.response_time, b.metrics.response_time)
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    assert a.message_counts == b.message_counts


def test_different_seeds_differ():
    a = run_fastpath(_config(seed=0))
    b = run_fastpath(_config(seed=1))
    assert not np.array_equal(a.metrics.response_time, b.metrics.response_time)


def test_random_matches_heap_engine_exactly():
    """Random reads no server state, so the batch Lindley recursion
    replays the heap engine's arithmetic on the same substreams."""
    config = _config(policy="random", n_requests=3_000)
    fast = run_fastpath(config)
    heap = build_cluster(config.with_updates(engine="heap"))[0].run()
    np.testing.assert_allclose(
        fast.metrics.response_time, heap.response_time, rtol=0, atol=1e-12
    )


# ----------------------------------------------------------------------
# window batching: several ticks per loop iteration, same results
# ----------------------------------------------------------------------
def _stale_jsq_tick_by_tick(config, tick, arrivals):
    """The stale_jsq model replayed one tick and one job at a time in
    plain Python — the reference the windowed loop must equal. Takes the
    run's own arrival times; services come from the same substream."""
    n, n_servers = config.n_requests, config.n_servers
    update_interval = config.policy_params["update_interval"]
    hub = RngHub(config.seed)
    _, services = make_workload(config.workload).generate(hub.stream("workload"), n)
    rng_ties = hub.stream("policy.stale.ties")
    one_way = PAPER_NET.request_one_way
    arrivals, services = arrivals.tolist(), services.tolist()

    free = [0.0] * n_servers
    qlen = [0] * n_servers
    snapshot = list(qlen)
    in_system = []  # (completion, server)
    next_refresh = update_interval
    ticks = refreshes = 0
    response, servers = [], []
    t = tick * math.floor(arrivals[0] / tick)
    i = 0
    while i < n:
        ticks += 1
        t_end = t + tick
        for completion, s in in_system:
            if completion <= t:
                qlen[s] -= 1
        in_system = [(c, s) for c, s in in_system if c > t]
        while next_refresh < t_end:
            snapshot = list(qlen)
            refreshes += 1
            next_refresh += update_interval
        j = i
        while j < n and arrivals[j] < t_end:
            j += 1
        if j > i:
            low = min(snapshot)
            minima = [s for s in range(n_servers) if snapshot[s] == low]
            picks = rng_ties.integers(0, len(minima), size=j - i).tolist()
            for k, pick in zip(range(i, j), picks):
                s = minima[pick]
                begin = max(arrivals[k] + one_way, free[s])
                free[s] = begin + services[k]
                qlen[s] += 1
                in_system.append((free[s], s))
                response.append(free[s] + one_way - arrivals[k])
                servers.append(s)
            i = j
        t = t_end
    return ticks, refreshes, response, servers


@pytest.mark.parametrize(
    "tick",
    [
        None,  # update_interval / 16: 16 ticks per window
        0.006,  # does not divide update_interval: windows of 3 and 4 ticks
        0.05,  # above update_interval: two or three refreshes inside every tick
    ],
)
def test_stale_jsq_windows_equal_the_tick_by_tick_model(tick):
    config = _config(
        policy="stale_jsq", policy_params={"update_interval": 0.02}, n_requests=600
    )
    run = run_fastpath(config, tick=tick)
    ticks, refreshes, response, servers = _stale_jsq_tick_by_tick(
        config, run.tick_length, run.metrics.arrival_time
    )
    # `ticks` stays a count of model ticks: none dropped inside a window,
    # none added after the tick that holds the last arrival
    assert run.ticks == ticks
    assert run.policy_counters == {"refreshes": refreshes}
    assert run.metrics.server_id.tolist() == servers
    assert run.metrics.response_time.tolist() == response
    if run.tick_length > 0.02:
        assert run.iterations == run.ticks  # a refresh in every tick
        assert refreshes > ticks
    else:
        # one iteration per refresh-bearing tick, plus the first
        assert run.iterations <= refreshes + 1
        assert run.iterations * 3 <= run.ticks


def test_last_arrival_mid_window_counts_no_trailing_ticks():
    """A window that could run to the next refresh still ends at the
    tick holding the last arrival."""
    config = _config(
        policy="stale_jsq", policy_params={"update_interval": 0.5}, n_requests=50
    )
    run = run_fastpath(config)
    tick = run.tick_length
    arrivals = run.metrics.arrival_time
    first_tick_start = tick * math.floor(float(arrivals[0]) / tick)
    last_tick_end = first_tick_start
    for _ in range(run.ticks):
        last_tick_end += tick
    assert last_tick_end - tick <= arrivals[-1] < last_tick_end
    # the whole run sat inside the first window: no refresh came due
    assert run.policy_counters == {"refreshes": 0}
    assert run.iterations == 1


@pytest.mark.parametrize("policy, params", [
    ("polling", {"poll_size": 2}),
    ("broadcast", {"mean_interval": 0.01}),
])
def test_state_reading_policies_iterate_every_tick(policy, params):
    """qlen (polling) and the announcement table (broadcast) can change
    in any tick, so no batch may span two."""
    run = run_fastpath(_config(policy=policy, policy_params=params))
    assert run.iterations == run.ticks


def test_random_is_one_window():
    run = run_fastpath(_config())
    assert (run.ticks, run.iterations) == (1, 1)


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def test_message_counts_match_paper_model():
    n = 2_000
    random = run_fastpath(_config(policy="random", n_requests=n))
    assert random.message_counts["request"] == n
    assert random.message_counts["response"] == n
    assert "poll" not in random.message_counts

    polling = run_fastpath(
        _config(policy="polling", policy_params={"poll_size": 3}, n_requests=n)
    )
    assert polling.message_counts["poll"] == 3 * n
    assert polling.message_counts["poll_reply"] == 3 * n
    assert polling.policy_counters["polls_sent"] == 3 * n

    broadcast = run_fastpath(
        _config(policy="broadcast", policy_params={"mean_interval": 0.01}, n_requests=n)
    )
    assert broadcast.message_counts["broadcast"] > 0


def test_occupancy_is_a_distribution():
    run = run_fastpath(_config())
    assert run.occupancy is not None
    assert run.occupancy.min() >= 0
    assert run.occupancy.sum() == pytest.approx(1.0)
    tail = run.occupancy_tail
    assert tail[0] == pytest.approx(1.0)
    assert np.all(np.diff(tail) <= 1e-12)  # s_k is non-increasing


def test_record_occupancy_false_skips_reconstruction():
    run = run_fastpath(_config(), record_occupancy=False)
    assert run.occupancy is None
    with pytest.raises(ValueError, match="record_occupancy"):
        run.occupancy_tail


def test_run_simulation_routes_fast_engine():
    config = _config()
    result = run_simulation(config)
    assert result.events_executed > 0
    assert result.mean_response_time > 0
    # server_counts are post-warmup, same semantics as the exact engines
    expected = config.n_requests - int(config.n_requests * config.warmup_fraction)
    assert sum(result.server_counts) == expected
    assert result.n_measured == expected


def test_fastpath_policies_constant_is_exhaustive():
    assert set(FASTPATH_POLICIES) == {"random", "polling", "broadcast", "stale_jsq"}

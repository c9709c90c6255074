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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    build_cluster,
    run_simulation,
    run_with_telemetry,
)
from repro.net.latency import PAPER_NET
from repro.sim import fastpath
from repro.sim.fastpath import (
    FASTPATH_POLICIES,
    FastpathUnsupportedError,
    _announce_block,
    fastpath_violations,
    run_fastpath,
)
from repro.sim.rng import RngHub
from repro.workload.workloads import make_workload, request_stream
from tests.conftest import kernel_examples
from tests.sim.golden_fastpath import COARSE_TICK

_POLICY_PARAMS = [
    ("random", {}),
    ("polling", {"poll_size": 2}),
    ("broadcast", {"mean_interval": 0.01}),
    ("stale_jsq", {"update_interval": 0.02}),
]


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


@pytest.mark.parametrize("policy, params", _POLICY_PARAMS)
@pytest.mark.parametrize("tick", [math.nan, math.inf, -math.inf, 0.0])
def test_a_tick_that_is_not_finite_and_positive_raises_before_any_draw(
    monkeypatch, policy, params, tick
):
    def no_draw(*args):
        raise AssertionError("the request stream was drawn before tick was checked")

    monkeypatch.setattr(fastpath, "request_stream", no_draw)
    with pytest.raises(ValueError, match=r"tick must be finite and > 0, got"):
        run_fastpath(_config(policy=policy, policy_params=params), tick=tick)


# ----------------------------------------------------------------------
# determinism + exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy, params", _POLICY_PARAMS)
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


def _sweep(next_announce, rng_intervals, mean_interval, t_end):
    """One tick of announcements as the per-tick loop made them: every
    server due before the tick ends announces and draws its next
    interval, and one due again inside the tick announces again (a tick
    above half the mean interval). Returns the announcers in draw order."""
    announced = []
    due = (next_announce < t_end).nonzero()[0]
    while due.size:
        announced += due.tolist()
        next_announce[due] += rng_intervals.uniform(0.5, 1.5, size=due.size) * mean_interval
        due = due[next_announce[due] < t_end]
    return announced


def _broadcast_tick_by_tick(config, tick):
    """The broadcast model replayed one tick and one job at a time in
    plain Python, announcing through :func:`_sweep` every tick — the
    reference the block-ahead announcements must equal."""
    n, n_servers = config.n_requests, config.n_servers
    mean_interval = config.policy_params["mean_interval"]
    gaps, services = request_stream(
        config.workload, config.workload_params, config.seed, n, n_servers, config.load
    )
    arrivals, services = np.cumsum(gaps).tolist(), services.tolist()
    hub = RngHub(config.seed)
    rng_ties = hub.stream("policy.broadcast.ties")
    rng_intervals = hub.stream("policy.broadcast.intervals")
    next_announce = rng_intervals.uniform(0.5, 1.5, size=n_servers) * mean_interval
    one_way = PAPER_NET.request_one_way

    free = [0.0] * n_servers
    qlen = [0] * n_servers
    table = [0] * n_servers
    in_system = []  # (completion, server)
    ticks = broadcasts_sent = 0
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
        for s in _sweep(next_announce, rng_intervals, mean_interval, t_end):
            table[s] = qlen[s]
            broadcasts_sent += 1
        j = i
        while j < n and arrivals[j] < t_end:
            j += 1
        if j > i:
            low = min(table)
            minima = [s for s in range(n_servers) if table[s] == low]
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
    return ticks, broadcasts_sent, response, servers


@pytest.mark.parametrize(
    "tick, overrides",
    [
        (None, {}),  # mean_interval / 16: blocks of 7 ticks after the first
        (COARSE_TICK, {}),  # above half the interval: one-tick blocks with rounds
        (0.0007, {}),  # does not divide the interval: blocks of 6 ticks
        # the first arrival lands 6 intervals in: the first tick catches
        # up several announcements per server before the blocks start
        (None, {"n_servers": 4, "seed": 3, "n_requests": 150,
                "policy_params": {"mean_interval": 0.004}}),
    ],
    ids=["default", "coarse", "non-dividing", "late-first-arrival"],
)
def test_broadcast_blocks_equal_the_tick_by_tick_model(tick, overrides):
    config = _config(**{
        "policy": "broadcast",
        "policy_params": {"mean_interval": 0.01},
        "n_requests": 600,
        **overrides,
    })
    run = run_fastpath(config, tick=tick)
    mean_interval = config.policy_params["mean_interval"]
    if overrides:
        assert run.metrics.arrival_time[0] > 5 * mean_interval
    ticks, broadcasts_sent, response, servers = _broadcast_tick_by_tick(
        config, run.tick_length
    )
    assert run.ticks == ticks
    assert run.policy_counters == {"broadcasts_sent": broadcasts_sent}
    assert run.metrics.server_id.tolist() == servers
    assert run.metrics.response_time.tolist() == response


@settings(max_examples=kernel_examples(100), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_servers=st.integers(1, 64),
    tick_over_interval=st.floats(1e-3, 3.0),
    start_intervals=st.floats(0.0, 20.0),
    n_ticks=st.integers(1, 400),
)
def test_announce_block_equals_the_per_tick_sweep(
    seed, n_servers, tick_over_interval, start_intervals, n_ticks
):
    """From the grid start on, blocks of the loop's size announce the
    same servers in the same ticks and the same order as :func:`_sweep`
    tick by tick, leave the same next announcement times, and draw the
    same intervals."""
    mean_interval = 0.01
    tick = tick_over_interval * mean_interval
    t = tick * math.floor(start_intervals * mean_interval / tick)
    walk_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    walk_next = walk_rng.uniform(0.5, 1.5, size=n_servers) * mean_interval
    block_next = block_rng.uniform(0.5, 1.5, size=n_servers) * mean_interval

    walk, ends = [], []
    t_end = t
    for _ in range(n_ticks):
        t_end += tick
        ends.append(t_end)
        walk.append(_sweep(walk_next, walk_rng, mean_interval, t_end))
    # the run's last arrival sits in the last tick
    last_arrival = ends[-2] if n_ticks > 1 else t

    block_ticks = max(1, math.floor(0.5 * mean_interval / tick) - 1)
    blocks = []
    while len(blocks) < n_ticks:
        announced, bounds = _announce_block(
            block_next, block_rng, mean_interval, t, tick,
            1 if not blocks else block_ticks, last_arrival,
        )
        for lo, hi in zip(bounds, bounds[1:]):
            blocks.append(announced[lo:hi].tolist())
            t += tick
    assert blocks == walk
    assert t == ends[-1]
    assert block_next.tolist() == walk_next.tolist()
    assert block_rng.bit_generator.state == walk_rng.bit_generator.state


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
# invariant: every request served once, FIFO on its server
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy, params", _POLICY_PARAMS)
@pytest.mark.parametrize("n_servers, n_requests", [(16, 1_000), (1000, 12_000)])
@pytest.mark.parametrize("load", [0.5, 0.9])
def test_every_request_is_served_once_in_fifo_order(
    policy, params, n_servers, n_requests, load
):
    """Whatever the policy picked, the kernel's times must be the FIFO
    recursion on each server, recomputed here one job at a time from the
    regenerated request stream: the goldens say the output is unchanged,
    this says it is right."""
    config = _config(policy=policy, policy_params=params, n_servers=n_servers,
                     n_requests=n_requests, load=load)
    run = run_fastpath(config)
    server_id = run.metrics.server_id
    assert server_id.shape == (n_requests,)
    assert 0 <= server_id.min() and server_id.max() < n_servers  # unassigned reads -1

    gaps, services = request_stream(
        config.workload, config.workload_params, config.seed, n_requests, n_servers, load
    )
    arrivals = np.cumsum(gaps).tolist()
    one_way = PAPER_NET.request_one_way
    offset = PAPER_NET.udp_rtt if policy == "polling" else 0.0
    jobs = [[] for _ in range(n_servers)]
    for k, s in enumerate(server_id.tolist()):
        jobs[s].append(k)  # in arrival order
    assert sorted(k for queue in jobs for k in queue) == list(range(n_requests))

    queue_wait = [math.nan] * n_requests
    response = [math.nan] * n_requests
    for queue in jobs:
        free = 0.0
        for k in queue:
            server_arrival = arrivals[k] + (offset + one_way)
            begin = max(server_arrival, free)
            free = begin + services[k]
            queue_wait[k] = begin - server_arrival
            response[k] = free + one_way - arrivals[k]
    assert run.metrics.queue_wait.tolist() == queue_wait
    assert run.metrics.response_time.tolist() == response


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


def test_record_occupancy_false_skips_reconstruction():
    run = run_fastpath(_config(), record_occupancy=False)
    assert run.occupancy is None


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

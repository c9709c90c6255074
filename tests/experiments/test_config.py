"""Unit tests for SimulationConfig."""

import pytest

from repro.experiments import SimulationConfig, run_simulation


def test_defaults_match_paper_setup():
    config = SimulationConfig()
    assert config.n_servers == 16
    assert config.n_clients == 6
    assert config.model == "simulation"


def test_validation():
    with pytest.raises(ValueError):
        SimulationConfig(model="hardware")
    with pytest.raises(ValueError):
        SimulationConfig(load=0.0)
    # an infinite load used to run, every arrival at t=0
    with pytest.raises(ValueError, match="load must be finite and > 0, got inf"):
        SimulationConfig(policy="random", load=float("inf"), n_requests=200, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(n_requests=5)
    with pytest.raises(ValueError):
        SimulationConfig(warmup_fraction=1.0)


def test_overhead_params_are_checked_like_every_other_dict_field():
    """They used to reach PrototypeOverheadModel unchecked: a TypeError
    in a pool worker under "prototype", ignored yet hashed into the
    cache key under "simulation"."""
    ok = SimulationConfig(model="prototype", overhead_params={"poll_cpu_cost": 1e-4})
    assert ok.overhead_params == {"poll_cpu_cost": 1e-4}
    with pytest.raises(ValueError, match=r"unknown overhead_params key\(s\): \['nosuch'\]"):
        SimulationConfig(model="prototype", overhead_params={"nosuch": 1})
    with pytest.raises(ValueError, match="model='prototype' only"):
        SimulationConfig(overhead_params={"poll_cpu_cost": 1e-4})


def test_with_updates_returns_new_frozen_copy():
    config = SimulationConfig(load=0.5)
    updated = config.with_updates(load=0.9, policy="random")
    assert updated.load == 0.9 and updated.policy == "random"
    assert config.load == 0.5
    with pytest.raises(Exception):
        config.load = 0.7  # type: ignore[misc]


def test_describe():
    config = SimulationConfig(policy="polling", policy_params={"poll_size": 2},
                              workload="fine_grain", load=0.9)
    text = config.describe()
    assert "polling" in text and "fine_grain" in text and "90%" in text


def test_label_overrides_describe():
    config = SimulationConfig(label="my run")
    assert config.describe() == "my run"


_SUB_RTT_DISCARD = {"discard_slow": True, "discard_timeout": 100e-6}  # udp_rtt is 290 µs


@pytest.mark.parametrize("engine", ["heap", "calendar", "fast"])
@pytest.mark.parametrize("n_servers, policy_params", [
    (4, {"poll_size": 4}),
    (4, {"poll_size": 8}),
    (16, {"poll_size": 16}),
    (2, {}),  # the policy's default poll size, 2
])
def test_every_server_polled_under_a_sub_rtt_deadline_is_refused(
    engine, n_servers, policy_params
):
    """Every reply lands one round trip after the polls, so a deadline
    inside it lets the first poll sent decide; with every server polled
    they go out in id order and server 0 took every request, on every
    engine."""
    with pytest.raises(
        ValueError,
        match=r"poll_size=\d+ >= n_servers=\d+ and discard_timeout=0.0001 < udp_rtt=0.00029",
    ):
        SimulationConfig(
            policy="polling", policy_params={**policy_params, **_SUB_RTT_DISCARD},
            n_servers=n_servers, engine=engine,
        )


@pytest.mark.parametrize("engine", ["heap", "calendar", "fast"])
def test_a_sub_rtt_deadline_with_fewer_polls_than_servers_still_spreads(engine):
    config = SimulationConfig(
        policy="polling", policy_params={"poll_size": 3, **_SUB_RTT_DISCARD},
        n_servers=4, load=0.5, n_requests=400, engine=engine,
    )
    assert min(run_simulation(config).server_counts) > 0


def test_every_server_polled_is_accepted_outside_that_combination():
    every = {"poll_size": 4, **_SUB_RTT_DISCARD}
    SimulationConfig(policy="polling", policy_params=every, n_servers=4,
                     model="prototype")  # latencies vary with load
    SimulationConfig(policy="polling", policy_params={"poll_size": 4, "discard_slow": True},
                     n_servers=4)  # the default 10 ms deadline
    SimulationConfig(policy="polling", policy_params={**every, "discard_slow": False},
                     n_servers=4)


@pytest.mark.parametrize("cluster_params", [{}, {"availability": False}])
def test_a_view_lag_without_availability_is_refused(cluster_params):
    """The lag delays soft-state updates into the dispatcher views; with
    availability off there are none, so the run would equal the run
    without it."""
    with pytest.raises(
        ValueError, match=r"dispatcher_params.view_lag=0.15 needs cluster_params.availability"
    ):
        SimulationConfig(
            policy="random", cluster_params=cluster_params,
            dispatcher_params={"count": 2, "view_lag": 0.15},
        )


def test_a_view_lag_with_availability_or_none_is_accepted():
    SimulationConfig(
        policy="random", cluster_params={"availability": True},
        dispatcher_params={"count": 2, "view_lag": 0.15},
    )
    SimulationConfig(policy="random", dispatcher_params={"count": 2, "view_lag": 0.0})

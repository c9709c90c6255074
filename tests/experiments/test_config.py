"""Unit tests for SimulationConfig."""

import pytest

from repro.experiments import SimulationConfig


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

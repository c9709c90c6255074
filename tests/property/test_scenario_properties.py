"""Property-based invariants of scenario expansion (ISSUE 7 satellite).

Expansion must be a pure function of the spec: expanding twice yields
identical configs (hence identical content-addressed cache keys), and
no two distinct cells may ever collide on a cache key — a collision
would silently serve one cell's cached result for another.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import config_key
from repro.experiments.scenario import (
    FaultAxis,
    ModeAxis,
    PolicyAxis,
    ScaleAxis,
    ScenarioError,
    ScenarioSpec,
    WorkloadAxis,
    spec_from_dict,
)

_POLICY_POOL = [
    PolicyAxis("rnd", "random"),
    PolicyAxis("rr", "round_robin"),
    PolicyAxis("p2", "polling", {"poll_size": 2}),
    PolicyAxis("p3d", "polling", {"poll_size": 3, "discard_slow": True}),
    PolicyAxis("bc", "broadcast", {"mean_interval": 0.05}),
    PolicyAxis("lc", "least_connections"),
    PolicyAxis("jiq", "jiq"),
]

_WORKLOAD_POOL = [
    WorkloadAxis("pexp", "poisson_exp"),
    WorkloadAxis("pdet", "poisson_deterministic"),
    WorkloadAxis("burst", "replay_bursty", {"burst_ratio": 5.0}),
    WorkloadAxis("mmpp", "mmpp_exp", {"burst_ratio": 3.0}),
]

_MODE_POOL = [
    ModeAxis("naive"),
    ModeAxis("hedge", reliability={"hedge_quantile": 0.9}),
    ModeAxis("shed", overload={"sojourn_target": 0.1}),
    ModeAxis("telem", telemetry={"sample_interval": 0.1}),
]

_FAULT_POOL = [
    FaultAxis("f0", {"loss": 0.0}),
    FaultAxis("loss", {"loss": 0.05}),
    FaultAxis("dup", {"duplicate": 0.05}),
]

_SCALE_POOL = [
    ScaleAxis("s4", 4),
    ScaleAxis("s8", 8, 300),
    ScaleAxis("s16", 16),
]


def _axis_subset(pool):
    return st.lists(
        st.sampled_from(range(len(pool))), min_size=1, max_size=len(pool), unique=True
    ).map(lambda idx: tuple(pool[i] for i in idx))


spec_strategy = st.builds(
    ScenarioSpec,
    name=st.just("prop"),
    policies=_axis_subset(_POLICY_POOL),
    workloads=_axis_subset(_WORKLOAD_POOL),
    loads=st.lists(
        st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.2]), min_size=1, max_size=3,
        unique=True,
    ).map(tuple),
    modes=_axis_subset(_MODE_POOL),
    faults=_axis_subset(_FAULT_POOL),
    scales=_axis_subset(_SCALE_POOL),
    n_requests=st.sampled_from([100, 250]),
    seed=st.integers(0, 1000),
)


@given(spec=spec_strategy)
@settings(max_examples=40, deadline=None)
def test_expansion_is_deterministic(spec):
    first = spec.expand()
    second = spec.expand()
    assert [c.config for c in first] == [c.config for c in second]
    assert [c.config.label for c in first] == [c.config.label for c in second]


@given(spec=spec_strategy)
@settings(max_examples=40, deadline=None)
def test_cache_keys_stable_and_collision_free(spec):
    cells = spec.expand()
    keys = [config_key(c.config) for c in cells]
    # stable: a second expansion hashes identically (cache hits survive
    # re-expansion of the same spec)
    assert keys == [config_key(c.config) for c in spec.expand()]
    # collision-free: distinct cells never share a content address
    assert len(set(keys)) == len(cells)
    # cell count is exactly the axis product
    expected = (
        len(spec.modes) * len(spec.workloads) * len(spec.policies)
        * len(spec.loads) * len(spec.faults) * len(spec.scales)
    )
    assert len(cells) == expected


@given(spec=spec_strategy, n_servers=st.sampled_from([4, 8]))
@settings(max_examples=20, deadline=None)
def test_scale_axis_overrides_apply_per_cell(spec, n_servers):
    spec = ScenarioSpec(
        **{**spec.__dict__, "n_servers": n_servers, "scales": spec.scales}
    )
    for cell in spec.expand():
        scale = next(s for s in spec.scales if s.label == cell.scale)
        expected_servers = (
            scale.n_servers if scale.n_servers is not None else n_servers
        )
        assert cell.config.n_servers == expected_servers
        if scale.n_requests is not None:
            assert cell.config.n_requests == scale.n_requests


# ----------------------------------------------------------------------
# spec files are outside input: junk raises ScenarioError, nothing else
# ----------------------------------------------------------------------

_JUNK_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.sampled_from(["200", "random", "poisson_exp", "prototype", "fast",
                     "{", "{0}", "{load:d}", "{nosuch}", "{load.x}"]),
)
_JUNK_KEYS = st.sampled_from([
    "label", "policy", "workload", "params", "chaos", "intensity", "value",
    "n_servers", "n_requests", "speeds", "reliability", "overload", "model",
    "overhead_params", "server_speeds", "loss", "poll_size", "bogus",
])
_JUNK = st.recursive(
    _JUNK_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_JUNK_KEYS, inner, max_size=3)
    ),
    max_leaves=6,
)

#: a valid spec with every axis populated, to be broken one path at a time
_VALID_SPEC = {
    "name": "junk", "n_requests": 100, "n_servers": 4, "seed": 1,
    "engine": "heap", "loads": [0.5],
    "policies": [{"label": "p", "policy": "polling", "params": {"poll_size": 2}}],
    "workloads": [{"label": "w", "workload": "poisson_exp", "params": {}}],
    "modes": [{"label": "m", "reliability": {"deadline": 1.0}}],
    "faults": [{"label": "f", "chaos": {"loss": 0.1}}, {"intensity": 1.0}],
    "scales": [{"label": "s", "n_servers": 4, "n_requests": 50}],
    "cluster_params": {},
    "config_overrides": {"model": "simulation", "server_speeds": [1, 1, 1, 2]},
    "label_format": "{scenario} {policy} {fault}",
}


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(list(_paths(_VALID_SPEC))), _JUNK),
        min_size=1, max_size=2,
    ),
    scratch=st.dictionaries(st.sampled_from(sorted(_VALID_SPEC)), _JUNK, max_size=4),
)
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_json_shaped_junk_expands_or_raises_scenario_error(mutations, scratch):
    """Wrong-typed scalars, scalars where lists belong, nested junk in
    axis entries: cells or ScenarioError, never a TypeError /
    AttributeError / KeyError / IndexError from inside validation."""
    broken = copy.deepcopy(_VALID_SPEC)
    for path, junk in mutations:
        node = broken
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = junk
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced the container this one is in
    for data in (broken, scratch):
        try:
            cells = spec_from_dict(data).expand()
        except ScenarioError:
            continue
        assert cells and all(cell.config.n_requests >= 10 for cell in cells)

"""Ten canonical cells, pinned exactly.

One fixed sweep over every policy family and both models (seed
20260706, 4 000 requests, N=16, load 0.9), each run pinned by its
:meth:`~repro.experiments.runner.SimulationResult.digest`: any drift in
any of the sixteen outcome fields fails, not only a mean beyond a
tolerance. A change that moves one of these cells on purpose states the
cell and the reason, then replaces its digest here.
"""

import pytest

from repro.experiments import SimulationConfig, parallel_sweep

_BASE = SimulationConfig(
    workload="poisson_exp", load=0.9, n_servers=16, n_requests=4000, seed=20260706
)

CONFIGS = (
    _BASE.with_updates(policy="random", label="random"),
    _BASE.with_updates(policy="ideal", label="ideal"),
    _BASE.with_updates(policy="polling", policy_params={"poll_size": 2}, label="poll2"),
    _BASE.with_updates(
        policy="broadcast", policy_params={"mean_interval": 0.05}, label="broadcast50ms"
    ),
    _BASE.with_updates(policy="least_connections", label="least_connections"),
    _BASE.with_updates(policy="jiq", label="jiq"),
    _BASE.with_updates(
        workload="fine_grain", policy="polling", policy_params={"poll_size": 3},
        label="fine_poll3",
    ),
    _BASE.with_updates(
        workload="medium_grain", policy="polling", policy_params={"poll_size": 2},
        label="medium_poll2",
    ),
    _BASE.with_updates(
        workload="fine_grain", model="prototype", full_load_rho=0.99,
        policy="polling", policy_params={"poll_size": 3, "discard_slow": True},
        label="proto_fine_poll3_discard",
    ),
    _BASE.with_updates(
        model="prototype", full_load_rho=0.92, policy="manager", label="proto_manager"
    ),
)

DIGESTS = {
    "random": "3912bdc2b745b9adc118fe29c18cc94dc6524c81323d3d42af19f13329bd28e5",
    "ideal": "87398876967e9dfb899b1cc7b6e9290786c34da5d52a290a81be3a0c74760980",
    "poll2": "691e76cb8c82fee3531a132d7f465f612efec03d91383deceb7f9ae5a0660bee",
    "broadcast50ms": "f2730029e4339e13e5f1a84d5c1af0f6f5ba6ffd74e21b5d724a20cfd6cff317",
    "least_connections": "af5775d0eb48bbeb46688508235867cc45653c11f9d4febc5370996549837464",
    "jiq": "4f2fe0ef9aa2f245cf7c389a45462cd971e0523571ccbd59b5e96f4a18559eb9",
    "fine_poll3": "1cf34089f87223354d3a9a611ffc2576fffa20c8f66beaec5cc8951d0fa13370",
    "medium_poll2": "490a7a3c5cee9881a57d74de54ad6ce6b96408742236c1cd612e36f3390550a3",
    "proto_fine_poll3_discard": "5d0142aafcc6bb24a2d7b0e320926a31d7bccbe4c1d9ba4a196eacb9e4e3d386",
    "proto_manager": "568f4c8833e0307b6797a84753a0eb0e277e39b6876cb02a2cc9e0a5b15b4e95",
}


def test_configs_cover_every_policy_family_and_both_models():
    assert {c.policy for c in CONFIGS} == {
        "random", "ideal", "polling", "broadcast", "least_connections", "jiq", "manager"
    }
    assert {c.model for c in CONFIGS} == {"simulation", "prototype"}
    assert [c.label for c in CONFIGS] == list(DIGESTS)


@pytest.fixture(scope="module")
def results():
    return parallel_sweep(CONFIGS, parallel=False)


@pytest.mark.parametrize("label", list(DIGESTS))
def test_canonical_cell_is_bit_identical(results, label):
    [result] = [r for r in results if r.config.label == label]
    assert result.digest() == DIGESTS[label], result.outcome()

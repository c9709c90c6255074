"""Ablation: simulated polling vs. Mitzenmacher's mean-field theory.

The paper grounds its poll-size conclusion in Mitzenmacher's analytical
result. This bench compares our 16-server polling simulation against
the n -> infinity supermarket fixed point: the simulation should sit
slightly above theory (finite n, 290 µs poll RTT, 145 µs-stale reads)
with the same steep d=1 -> d=2 drop.
"""

import numpy as np

from benchmarks.conftest import scaled
from repro.analysis import supermarket_mean_response_time
from repro.experiments import SimulationConfig, parallel_sweep
from repro.experiments.results import ResultTable
from repro.net import PAPER_NET

MEAN_SERVICE = 50e-3
LOADS = (0.7, 0.9)
DS = (1, 2, 3, 8)


def run():
    configs = []
    for load in LOADS:
        for d in DS:
            policy = ("random", {}) if d == 1 else ("polling", {"poll_size": d})
            configs.append(
                SimulationConfig(
                    policy=policy[0], policy_params=policy[1],
                    workload="poisson_exp", load=load,
                    n_requests=scaled(30_000), seed=0,
                )
            )
    return parallel_sweep(configs)


def test_supermarket_theory(report):
    results = run()
    table = ResultTable(["load", "d", "simulated_ms", "theory_ms", "ratio"])
    by_key = {}
    index = 0
    for load in LOADS:
        for d in DS:
            result = results[index]
            index += 1
            simulated = result.mean_response_time - PAPER_NET.request_response_total
            theory = supermarket_mean_response_time(load, d, MEAN_SERVICE)
            by_key[(load, d)] = (simulated, theory)
            table.add(load=load, d=d, simulated_ms=simulated * 1e3,
                      theory_ms=theory * 1e3, ratio=simulated / theory)
    report(
        "supermarket_theory",
        "== Polling simulation vs supermarket mean field ==\n" + table.render(),
    )

    for (load, d), (simulated, theory) in by_key.items():
        # d=1 (random = parallel M/M/1) should match closely; d>=2 sits
        # in a one-sided band above the n->infinity limit.
        if d == 1:
            assert np.isclose(simulated, theory, rtol=0.12), (load, d)
        else:
            assert 0.85 * theory < simulated < 1.8 * theory, (load, d)
    # The d=1 -> 2 collapse dwarfs d=2 -> 8 refinement, in both worlds.
    sim_90 = {d: by_key[(0.9, d)][0] for d in DS}
    assert (sim_90[1] - sim_90[2]) > 3.0 * (sim_90[2] - sim_90[8])

"""Ablation: does arrival burstiness change the paper's conclusions?

The paper chose Poisson arrivals for peak-time traffic (§1.1) while
acknowledging internet arrivals are burstier over long horizons. This
bench swaps in a 2-phase MMPP with a 5:1 rate swing (same mean rate)
and checks that the *ranking* — ideal < poll-2 < random — survives,
even though absolute response times inflate for every policy.
"""

from benchmarks.conftest import scaled
from repro.experiments import SimulationConfig, parallel_sweep
from repro.experiments.results import ResultTable

POLICIES = [
    ("random", "random", {}),
    ("poll-2", "polling", {"poll_size": 2}),
    ("ideal", "ideal", {}),
]


def test_burstiness(report):
    configs = []
    keys = []
    for wl_label, workload, params in [
        ("poisson", "poisson_exp", {}),
        ("mmpp 5:1", "mmpp_exp", {"burst_ratio": 5.0, "sojourn": 1.0}),
    ]:
        for p_label, policy, p_params in POLICIES:
            configs.append(
                SimulationConfig(
                    workload=workload, workload_params=params,
                    policy=policy, policy_params=p_params,
                    load=0.8, n_servers=16, n_requests=scaled(25_000), seed=0,
                )
            )
            keys.append((wl_label, p_label))
    results = parallel_sweep(configs)
    by_key = dict(zip(keys, results))

    table = ResultTable(["arrivals", "policy", "response_ms"])
    for (wl_label, p_label), result in zip(keys, results):
        table.add(arrivals=wl_label, policy=p_label,
                  response_ms=result.mean_response_time_ms)
    report(
        "ablation_burstiness",
        "== Arrival burstiness (80% load, 16 servers) ==\n" + table.render(),
    )

    for wl_label in ("poisson", "mmpp 5:1"):
        ideal = by_key[(wl_label, "ideal")].mean_response_time
        poll2 = by_key[(wl_label, "poll-2")].mean_response_time
        random_rt = by_key[(wl_label, "random")].mean_response_time
        assert ideal < poll2 < random_rt, wl_label
    # Bursts hurt everyone in absolute terms.
    assert (
        by_key[("mmpp 5:1", "ideal")].mean_response_time
        > by_key[("poisson", "ideal")].mean_response_time
    )

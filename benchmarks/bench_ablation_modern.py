"""Ablation: the paper's winner vs. its modern successors.

Power-of-d-choices — the paper's recommendation — went on to ship in
Envoy, nginx, and HAProxy; Join-Idle-Queue (Lu et al., 2011) and plain
client-local least-connections are the other deployed answers. This
bench races them across service granularities at 90% load (simulation
model: same information physics for all).

Expected shape: polling d=2 and JIQ are close (both near-oracle at
moderate load); JIQ pays no poll latency, which matters most when
services are finest; least-connections trails because each client only
sees 1/n_clients of the traffic.
"""

from benchmarks.conftest import scaled
from repro.experiments import SimulationConfig, parallel_sweep
from repro.experiments.results import ResultTable

WORKLOADS = [
    ("2ms exp", "poisson_exp", {"mean_service": 2e-3}),
    ("50ms exp", "poisson_exp", {"mean_service": 50e-3}),
    ("fine-grain trace", "fine_grain", {}),
]
POLICIES = [
    ("random", "random", {}),
    ("least-conn", "least_connections", {}),
    ("jiq", "jiq", {}),
    ("poll-2", "polling", {"poll_size": 2}),
    ("ideal", "ideal", {}),
]


def test_modern_policies(report):
    configs = []
    keys = []
    for wl_label, workload, wl_params in WORKLOADS:
        for p_label, policy, p_params in POLICIES:
            configs.append(
                SimulationConfig(
                    workload=workload, workload_params=wl_params,
                    policy=policy, policy_params=p_params,
                    load=0.9, n_servers=16, n_requests=scaled(20_000), seed=0,
                )
            )
            keys.append((wl_label, p_label))
    results = parallel_sweep(configs)
    by_key = dict(zip(keys, results))

    table = ResultTable(["workload", "policy", "response_ms", "vs_ideal"])
    for wl_label, _, _ in WORKLOADS:
        ideal = by_key[(wl_label, "ideal")].mean_response_time
        for p_label, _, _ in POLICIES:
            result = by_key[(wl_label, p_label)]
            table.add(workload=wl_label, policy=p_label,
                      response_ms=result.mean_response_time_ms,
                      vs_ideal=result.mean_response_time / ideal)
    report(
        "ablation_modern",
        "== Modern successors at 90% load (simulation model) ==\n" + table.render(),
    )

    for wl_label, _, _ in WORKLOADS:
        random_rt = by_key[(wl_label, "random")].mean_response_time
        for p_label in ("least-conn", "jiq", "poll-2"):
            assert by_key[(wl_label, p_label)].mean_response_time < random_rt, (
                wl_label, p_label,
            )
        # The two load-aware front-runners stay within 2x of each other.
        jiq = by_key[(wl_label, "jiq")].mean_response_time
        poll2 = by_key[(wl_label, "poll-2")].mean_response_time
        assert 0.5 < jiq / poll2 < 2.0

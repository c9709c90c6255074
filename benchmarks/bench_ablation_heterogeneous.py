"""Ablation: heterogeneous server speeds (beyond the paper).

The paper's cluster is homogeneous; modern power-of-d deployments
(Envoy/nginx/HAProxy) must handle skewed server speeds. Half the
servers run at 2x speed. Queue-length polling already adapts (fast
servers drain faster, so their queues read shorter); speed-weighted
polling (queue+1)/speed should adapt at least as well, and plain random
— which cannot see speed at all — falls behind.
"""

import numpy as np

from benchmarks.conftest import scaled
from repro.experiments import SimulationConfig, parallel_sweep
from repro.experiments.results import ResultTable

SPEEDS = tuple([2.0] * 8 + [1.0] * 8)  # mean speed 1.5


def test_heterogeneous(report):
    base = SimulationConfig(
        workload="poisson_exp", load=0.85, n_servers=16,
        n_requests=scaled(25_000), seed=0, server_speeds=SPEEDS,
    )
    # Note: the runner computes load against unit speed; with mean speed
    # 1.5 the true utilization is load/1.5, so push load higher.
    specs = [
        ("random", "random", {}),
        ("poll-2", "polling", {"poll_size": 2}),
        ("poll-2-weighted", "polling", {"poll_size": 2, "weight_by_speed": True}),
        ("ideal", "ideal", {}),
        ("ideal-weighted", "ideal", {"weight_by_speed": True}),
    ]
    configs = [
        base.with_updates(policy=p, policy_params=pp, load=1.25)
        for _, p, pp in specs
    ]
    results = parallel_sweep(configs)

    table = ResultTable(["policy", "response_ms", "fast_server_share"])
    shares = {}
    for (label, _, _), result in zip(specs, results):
        counts = np.asarray(result.server_counts, dtype=float)
        share = counts[:8].sum() / counts.sum()
        shares[label] = (result.mean_response_time, share)
        table.add(policy=label, response_ms=result.mean_response_time_ms,
                  fast_server_share=share)
    report(
        "ablation_heterogeneous",
        "== Heterogeneous servers (8x 2.0-speed + 8x 1.0-speed) ==\n" + table.render(),
    )

    # Random sends half the traffic to slow servers -> much worse.
    assert shares["random"][1] < 0.55
    assert shares["poll-2"][0] < 0.6 * shares["random"][0]
    # Load-aware policies route the majority of work to fast servers.
    for label in ("poll-2", "poll-2-weighted", "ideal", "ideal-weighted"):
        assert shares[label][1] > 0.55, label
    # Speed weighting does not hurt (and the oracle variant helps).
    assert shares["poll-2-weighted"][0] < 1.15 * shares["poll-2"][0]
    assert shares["ideal-weighted"][0] < 1.1 * shares["ideal"][0]

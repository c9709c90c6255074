"""Ablation: is the paper's 10 ms discard threshold the right cutoff?

Sweeps the discard timeout on the prototype model (Fine-Grain trace,
d=3, 90% busy). Expected shape: very small thresholds throw away too
much load information (toward random-quality decisions); very large
thresholds converge to the no-discard baseline; the paper's 10 ms —
one Linux scheduler quantum — sits in the flat optimum between.
"""

from benchmarks.conftest import scaled
from repro.experiments import SimulationConfig, parallel_sweep
from repro.experiments.runner import full_load_rho_for
from repro.experiments.results import ResultTable

THRESHOLDS = (0.5e-3, 2e-3, 5e-3, 10e-3, 30e-3, 100e-3)


def test_discard_threshold(report):
    base = SimulationConfig(
        workload="fine_grain", load=0.9, n_requests=scaled(25_000, minimum=12_000),
        seed=0, model="prototype",
    )
    base = base.with_updates(full_load_rho=full_load_rho_for(base))
    configs = [
        base.with_updates(
            policy="polling",
            policy_params={"poll_size": 3, "discard_slow": True,
                           "discard_timeout": float(t)},
        )
        for t in THRESHOLDS
    ] + [base.with_updates(policy="polling", policy_params={"poll_size": 3})]
    results = parallel_sweep(configs)

    table = ResultTable(["threshold_ms", "response_ms", "poll_ms"])
    for threshold, result in zip(THRESHOLDS, results):
        table.add(threshold_ms=threshold * 1e3,
                  response_ms=result.mean_response_time_ms,
                  poll_ms=result.mean_poll_time_ms)
    baseline = results[-1]
    table.add(threshold_ms=float("inf"),
              response_ms=baseline.mean_response_time_ms,
              poll_ms=baseline.mean_poll_time_ms)
    report(
        "ablation_discard_threshold",
        "== Discard-threshold sweep (fine-grain, d=3, 90%) ==\n" + table.render(),
    )

    by_threshold = dict(zip(THRESHOLDS, results))
    ten_ms = by_threshold[10e-3].mean_response_time
    # 10ms beats the no-discard baseline (the paper's Table 2 claim).
    assert ten_ms < baseline.mean_response_time
    # Very large thresholds converge back to the baseline.
    assert abs(
        by_threshold[100e-3].mean_response_time - baseline.mean_response_time
    ) < 0.15 * baseline.mean_response_time
    # The paper's quantum-sized cutoff is within 10% of the sweep's best.
    best = min(r.mean_response_time for r in results)
    assert ten_ms < 1.10 * best

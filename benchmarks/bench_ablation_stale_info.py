"""Ablation: pure staleness (global-snapshot JSQ) vs broadcast vs polling.

Isolates *information age* from announcement mechanics: stale_jsq gives
every client the same exact queue snapshot, refreshed every T, for
free. Mitzenmacher (2000) predicts that beyond a critical age,
min-of-stale-info is worse than random (herding); just-in-time polling
never crosses that line — the mechanism behind the paper's conclusion
that client-initiated pulling suits fine-grain services.
"""

from benchmarks.conftest import scaled
from repro.experiments import SimulationConfig, parallel_sweep
from repro.experiments.results import ResultTable

AGES = (0.001, 0.01, 0.05, 0.2, 1.0)  # snapshot refresh periods, seconds


def test_stale_info(report):
    base = SimulationConfig(
        workload="poisson_exp", load=0.9, n_requests=scaled(25_000), seed=0,
    )
    configs = [
        base.with_updates(policy="stale_jsq",
                          policy_params={"update_interval": float(age)})
        for age in AGES
    ]
    configs += [
        base.with_updates(policy="stale_jsq",
                          policy_params={"update_interval": float(age),
                                         "local_increment": True})
        for age in AGES
    ]
    configs.append(base.with_updates(policy="random"))
    configs.append(base.with_updates(policy="polling", policy_params={"poll_size": 2}))
    results = parallel_sweep(configs)

    plain = results[: len(AGES)]
    corrected = results[len(AGES) : 2 * len(AGES)]
    random_result, polling_result = results[-2], results[-1]

    table = ResultTable(["info_age_s", "stale_jsq_ms", "stale_jsq_local_ms"])
    for age, p, c in zip(AGES, plain, corrected):
        table.add(info_age_s=age, stale_jsq_ms=p.mean_response_time_ms,
                  stale_jsq_local_ms=c.mean_response_time_ms)
    footer = (
        f"random: {random_result.mean_response_time_ms:.1f} ms   "
        f"polling(d=2): {polling_result.mean_response_time_ms:.1f} ms"
    )
    report(
        "ablation_stale_info",
        "== Stale-information JSQ (poisson_exp, 90%) ==\n"
        + table.render() + "\n" + footer,
    )

    # Fresh snapshots beat random; sufficiently stale ones lose to it
    # (Mitzenmacher's herding crossover).
    assert plain[0].mean_response_time < 0.5 * random_result.mean_response_time
    assert plain[-1].mean_response_time > random_result.mean_response_time
    # Monotone degradation with age.
    responses = [r.mean_response_time for r in plain]
    assert responses[0] < responses[2] < responses[-1]
    # Local increments mitigate staleness at every age.
    for p, c in zip(plain[2:], corrected[2:]):
        assert c.mean_response_time < p.mean_response_time
    # Just-in-time polling never crosses random.
    assert polling_result.mean_response_time < random_result.mean_response_time

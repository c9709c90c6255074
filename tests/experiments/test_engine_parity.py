"""Determinism harness: heap and calendar engines must agree bit-for-bit.

This is the acceptance gate for the calendar queue: a miniature of the
paper's fig3/fig4 config grids runs under both engines and every result
digest (every outcome field) must be identical. Any divergence means the calendar queue
reordered events — an automatic failure, however small the numeric
difference.
"""

import pytest

from repro.experiments import (
    SimulationConfig,
    engine_parity,
    parity_suite,
    run_simulation,
)


def test_parity_suite_shape():
    suite = parity_suite(n_requests=400)
    assert len(suite) >= 20
    policies = {c.policy for c in suite}
    assert {"broadcast", "polling", "random", "ideal"} <= policies
    assert any(c.model == "prototype" for c in suite)  # cancel-heavy path
    assert any(c.policy_params.get("discard_slow") for c in suite)
    # Hedge timers + breaker filtering must also be engine-invariant.
    assert any(c.reliability_params for c in suite)
    # Dispatcher-tier routing and autoscaler control ticks too.
    assert any(c.dispatcher_params and c.autoscaler_params for c in suite)
    # Oracle-on cells: the invariant checker must be engine-invariant.
    assert sum(1 for c in suite if c.verify_params) >= 2


def test_single_config_bit_identical():
    config = SimulationConfig(
        policy="polling", policy_params={"poll_size": 2},
        load=0.85, n_servers=4, n_requests=800, seed=11,
    )
    heap = run_simulation(config.with_updates(engine="heap"))
    calendar = run_simulation(config.with_updates(engine="calendar"))
    assert heap.digest() == calendar.digest()


def test_hardened_reliability_config_bit_identical():
    """The reliability layer (hedge timers, backoff events, breaker
    filtering) draws from named substreams only — both engines must
    agree bit-for-bit with every mechanism switched on."""
    from repro.experiments.chaos import (
        chaos_cluster_params,
        chaos_params_for,
        hardened_reliability_params,
    )

    config = SimulationConfig(
        policy="polling", policy_params={"poll_size": 3, "discard_slow": True},
        load=0.8, n_servers=4, n_requests=800, seed=23,
        cluster_params=chaos_cluster_params(),
        chaos_params=chaos_params_for(1.0, n_servers=4),
        reliability_params=hardened_reliability_params(),
    )
    heap = run_simulation(config.with_updates(engine="heap"))
    calendar = run_simulation(config.with_updates(engine="calendar"))
    # Exercised, not idle: hedge timers fired and breakers tripped.
    assert heap.chaos_counters["hedges_launched"] > 0
    assert heap.chaos_counters["breaker_opens"] > 0
    assert heap.digest() == calendar.digest()


@pytest.mark.parametrize("policy", ["jiq", "least_connections"])
def test_registry_extension_policies_bit_identical(policy):
    """Cluster-level engine parity for the two registry policies the
    ROADMAP under-reported (ISSUE 7 satellite): jiq's idle-queue
    signalling and least-connections' in-flight counts must be
    engine-invariant at fixed seed, like every paper policy."""
    config = SimulationConfig(
        policy=policy, load=0.9, n_servers=8, n_requests=2_000, seed=5,
    )
    heap = run_simulation(config.with_updates(engine="heap"))
    calendar = run_simulation(config.with_updates(engine="calendar"))
    assert heap.digest() == calendar.digest()


@pytest.mark.parametrize("policy", ["jiq", "least_connections"])
def test_registry_extension_policies_beat_random_at_high_load(policy):
    """Sanity bound: both load-aware extensions must clearly beat the
    no-information baseline at 90% load (fixed seed, same arrivals)."""
    base = SimulationConfig(load=0.9, n_servers=8, n_requests=2_000, seed=5)
    informed = run_simulation(base.with_updates(policy=policy))
    random_ = run_simulation(base.with_updates(policy="random"))
    assert informed.n_failed == 0
    assert informed.mean_response_time < 0.7 * random_.mean_response_time
    assert informed.p95_response_time < random_.p95_response_time


@pytest.mark.slow
def test_fig_suite_parity():
    """The full miniature fig3/fig4 grid under both engines."""
    report = engine_parity(parity_suite(n_requests=600), parallel=True)
    assert report.ok, report.render()
    assert "OK" in report.render()


def test_parity_small_serial():
    """A fast serial subset, run on every test invocation."""
    report = engine_parity(parity_suite(n_requests=300)[:5], parallel=False)
    assert report.ok, report.render()


def test_report_renders_mismatches():
    from repro.experiments import EngineParityReport

    config = SimulationConfig(n_requests=100)
    report = EngineParityReport(
        n_configs=1, mismatches=[(config, "events_executed", 10, 11)]
    )
    assert not report.ok
    text = report.render()
    assert "FAILED" in text and "events_executed" in text


def test_a_digest_mismatch_names_the_differing_fields(monkeypatch):
    """``engine_parity`` compares digests; on a mismatch it names each
    differing field from the same per-field encoding."""
    import dataclasses

    from repro.experiments import parity

    sweep = parity.parallel_sweep

    def skewed(configs, engine, **kwargs):
        results = sweep(configs, engine=engine, **kwargs)
        if engine == "heap":
            return results
        return [dataclasses.replace(r, stolen_cpu=-0.0, n_failed=r.n_failed + 1)
                for r in results]

    monkeypatch.setattr(parity, "parallel_sweep", skewed)
    config = SimulationConfig(n_requests=200, n_servers=4, seed=2)
    report = engine_parity([config], parallel=False)
    assert [name for _, name, _, _ in report.mismatches] == ["n_failed", "stolen_cpu"]
    assert "FAILED" in report.render() and "stolen_cpu" in report.render()

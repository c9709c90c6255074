"""Execute the docs/api-walkthrough.md snippets (keeps the docs honest).

Each section of the walkthrough is reproduced here as a test; if an API
in the doc drifts, these fail.
"""

import numpy as np
import pytest


def test_section1_kernel():
    from repro.sim import RngHub, Simulator

    sim = Simulator()
    log = []

    def heartbeat(remaining):
        log.append(sim.now)
        if remaining > 1:
            sim.after(1.0, heartbeat, remaining - 1)

    sim.after(1.0, heartbeat, 3)
    sim.run()
    assert log == [1.0, 2.0, 3.0]

    hub = RngHub(seed=7)
    assert hub.stream("arrivals") is hub.stream("arrivals")


def test_section2_workloads():
    from repro.sim import RngHub
    from repro.workload import FINE_GRAIN_SPEC, make_workload, request_stream, synthesize_trace

    hub = RngHub(7)
    workload = make_workload("fine_grain")
    gaps, services = workload.generate(hub.stream("w"), 10_000)
    assert gaps.shape == (10_000,)

    trace = synthesize_trace(FINE_GRAIN_SPEC, n=50_000, rng=hub.stream("t"))
    assert len(trace) == 50_000

    gaps, services = request_stream(
        "fine_grain", {}, seed=7, n_requests=10_000, n_servers=16, rho=0.9
    )
    assert services.mean() / (16 * gaps.mean()) == pytest.approx(0.9)


def test_section3_experiment():
    from repro.experiments import SimulationConfig, parallel_sweep, replicate, run_simulation

    config = SimulationConfig(
        policy="polling", policy_params={"poll_size": 2, "discard_slow": True},
        workload="fine_grain", load=0.9, n_servers=16, n_requests=1500,
        seed=1, model="prototype", full_load_rho=0.99,
    )
    result = run_simulation(config)
    assert result.mean_response_time_ms > 0
    assert "poll" in result.message_counts

    results = parallel_sweep(
        [config.with_updates(seed=s, n_requests=400) for s in range(2)],
        parallel=False,
    )
    assert len(results) == 2
    interval = replicate(config.with_updates(n_requests=400), n_replications=2,
                         parallel=False)
    assert interval.mean > 0


def test_section4_cluster_control():
    from repro.cluster import FailureInjector, ServiceCluster
    from repro.core import make_policy
    from repro.sim import RngHub

    hub = RngHub(7)
    workload_gaps = np.random.default_rng(0).exponential(0.002, 5000)
    services = np.random.default_rng(1).exponential(0.004, 5000)
    cluster = ServiceCluster(
        n_servers=4,
        policy=make_policy("polling", poll_size=2, discard_slow=True),
        seed=3, availability=True, request_timeout=1.0,
    )
    cluster.load_workload(workload_gaps, services)
    injector = FailureInjector(cluster)
    injector.schedule_crash(1, at=2.0)
    injector.schedule_recovery(1, at=6.0)
    metrics = cluster.run()
    assert metrics.summary()["mean_response_time"] > 0
    del hub


def test_section5_analysis():
    from repro.analysis import (
        eq1_upperbound,
        mm1_mean_response_time,
        supermarket_mean_response_time,
    )

    assert eq1_upperbound(0.9) == pytest.approx(9.4737, abs=1e-3)
    assert supermarket_mean_response_time(0.9, 2) == pytest.approx(2.615, abs=0.01)
    assert mm1_mean_response_time(0.9, 0.05) == pytest.approx(0.5)


def test_section6_figures():
    from repro.experiments import builtin_spec

    spec = builtin_spec(
        "fig4", n_requests=1000,
        loads=(0.9,), workloads=("poisson_lognormal",), poll_sizes=(2,),
    )
    report = spec.run(parallel=False)
    assert "Figure 4" in report.render()
    assert len(report.table.rows) == 3  # random, poll-2, ideal

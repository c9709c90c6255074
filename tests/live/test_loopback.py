"""Loopback harness smoke tests (sleep mode: fast and deterministic)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.overload import OverloadPolicy
from repro.experiments.runner import build_cluster
from repro.live.harness import LiveRunConfig, generate_workload, run_loopback
from repro.live.server import LiveServer
from repro.net.message import MessageKind
from tests.live.probe import run_for

#: small sleep-mode base config every test derives from
BASE = LiveRunConfig(
    policy="random",
    policy_params={},
    workload_params={"mean_service": 0.002},
    load=0.2,
    n_servers=3,
    n_clients=4,
    n_requests=40,
    seed=0,
    mode="sleep",
    request_timeout=2.0,
    time_limit=30.0,
)


def test_sleep_mode_smoke_run_completes_everything():
    result = run_loopback(BASE)
    summary = result.summary
    assert summary["n_failed"] == 0
    assert summary["n_measured"] == BASE.n_requests * (1 - BASE.warmup_fraction)
    assert summary["p50_response_time"] > 0.0
    served = sum(c["completed"] for c in result.server_counters)
    assert served == BASE.n_requests
    assert result.resilience_counters["wire_errors"] == 0
    assert result.arrival_epochs.shape == (BASE.n_requests,)
    assert result.arrival_epochs[0] > 1e9  # epoch-based, for --record-trace


def test_polling_policy_polls_real_servers():
    result = run_loopback(replace(BASE, policy="polling",
                                  policy_params={"poll_size": 2}))
    assert result.summary["n_failed"] == 0
    assert result.policy_counters["polls_sent"] == 2 * BASE.n_requests
    assert result.policy_counters["replies_received"] == 2 * BASE.n_requests
    assert result.summary["mean_poll_time"] > 0.0
    polls = sum(c["polls_served"] for c in result.server_counters)
    assert polls == 2 * BASE.n_requests


def test_workload_matches_sim_baseline_arrays():
    cfg = BASE
    gaps, services = generate_workload(cfg)
    assert gaps.shape == services.shape == (cfg.n_requests,)
    # The mean-based rescale targets n_servers * load exactly.
    target_interval = services.mean() / (cfg.n_servers * cfg.load)
    assert gaps.mean() == pytest.approx(target_interval)
    # Same seed -> bit-identical arrays (what makes sim-vs-real fair).
    gaps2, services2 = generate_workload(cfg)
    np.testing.assert_array_equal(gaps, gaps2)
    np.testing.assert_array_equal(services, services2)
    # ... and the arrays the exact engines load for the sim baseline.
    cluster, _ = build_cluster(cfg.sim_config())
    np.testing.assert_array_equal(np.cumsum(gaps), cluster._arrival_times)
    np.testing.assert_array_equal(services, cluster._service_times)


def test_sim_config_forwards_every_lifecycle_knob():
    """Regression: the "apples-to-apples" baseline carried only
    ``request_timeout`` and simulated a cluster without the live run's
    availability, retry budget or queue bound."""
    cfg = replace(
        BASE, availability=True, availability_refresh=0.2, availability_ttl=0.6,
        max_retries=9, server_max_queue=8,
    )
    assert cfg.sim_config().cluster_params == {
        "request_timeout": 2.0,
        "max_retries": 9,
        "server_max_queue": 8,
        "availability": True,
        "availability_refresh": 0.2,
        "availability_ttl": 0.6,
    }
    cluster, _ = build_cluster(cfg.sim_config())
    assert cluster.availability_enabled and cluster.max_retries == 9
    assert cluster.servers[0].max_queue == 8


def test_spin_overcommit_guard():
    with pytest.raises(ValueError, match="over-commits"):
        run_loopback(replace(BASE, mode="spin", load=0.5))  # 3 * 0.5 > 0.85


def test_unsupported_policy_rejected():
    with pytest.raises(ValueError, match="not supported by the live runtime"):
        run_loopback(replace(BASE, policy="broadcast"))


def test_hedging_rejected_live():
    with pytest.raises(ValueError, match="hedged requests are not supported"):
        run_loopback(replace(
            BASE, reliability_params={"hedge_quantile": 0.95, "deadline": 1.0}
        ))


def test_reliability_backoff_runs_live():
    result = run_loopback(replace(
        BASE,
        reliability_params={"deadline": 2.0, "backoff_base": 0.001,
                            "retry_budget": 10.0},
    ))
    assert result.summary["n_failed"] == 0
    assert "retries_spent" in result.resilience_counters or result.resilience_counters


def test_telemetry_flows_through_existing_collector():
    result = run_loopback(replace(BASE, telemetry=True, sample_interval=0.02))
    report = result.telemetry_report
    assert report is not None
    assert len(report.spans) == BASE.n_requests
    assert report.series["time"].size > 1
    accounting = report.accounting
    assert accounting["messages"][MessageKind.REQUEST.value] >= BASE.n_requests
    assert accounting["messages"][MessageKind.RESPONSE.value] == BASE.n_requests


def test_availability_soft_state_publishes_live():
    result = run_loopback(replace(
        BASE, availability=True, availability_refresh=0.1, availability_ttl=3.0
    ))
    assert result.summary["n_failed"] == 0


def test_static_bound_rejections_nack_and_fail():
    # max_queue=0 makes every server NACK every request: each request
    # burns its retries on rejects and fails terminally.
    cfg = replace(BASE, n_requests=6, server_max_queue=0, max_retries=2)
    result = run_loopback(cfg)
    assert result.summary["n_failed"] == cfg.n_requests
    rejected = sum(c["rejected"] for c in result.server_counters)
    assert rejected == cfg.n_requests * (cfg.max_retries + 1)


def test_overload_shed_sends_nack(clock, probe):
    server = LiveServer(
        0, clock, mode="sleep",
        overload=OverloadPolicy(sojourn_target=0.001, interval=0.001),
    )

    def send(req_id):
        probe.send(server.address, "request", id=req_id, attempt=0, client=9, service=0.5)

    send(1)  # occupies the worker for 0.5s
    run_for(clock, 0.01)
    server.overload.ewma_service = 1.0  # learned slow services
    send(2)  # delay estimate 1.0 > target: starts the window
    run_for(clock, 0.01)  # longer than the grace interval
    send(3)  # now shedding -> REJECT NACK
    run_for(clock, 0.05)
    rejects = probe.received("reject")
    assert [m["k"] for m in probe.seen] == ["reject"]
    assert rejects[0]["id"] == 3
    assert server.rejects_sent == 1
    assert server.overload.shed_count == 1

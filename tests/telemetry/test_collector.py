"""Request-lifecycle telemetry: spans, staleness, series, guarantees.

The two load-bearing guarantees (DESIGN.md §10) are asserted here:
zero overhead when off (no recorders installed, no annotations made)
and bit-identical simulation results when on (the collector schedules
no events and draws no randomness).
"""

import math

import numpy as np
import pytest

from repro.experiments import SimulationConfig, build_cluster, run_simulation
from repro.experiments.runner import run_with_telemetry
from repro.telemetry import SPAN_FIELDS, TelemetryCollector, sample_series


def config(n=300, telemetry=None, **kw):
    kw.setdefault("policy", "polling")
    kw.setdefault("policy_params", {"poll_size": 2})
    return SimulationConfig(
        n_requests=n, seed=3, telemetry=telemetry or {}, **kw
    )


# ----------------------------------------------------------------------
# zero overhead when off
# ----------------------------------------------------------------------
def test_telemetry_off_by_default():
    cluster, _ = build_cluster(config())
    assert cluster.telemetry is None
    assert all(s.queue_recorder is None for s in cluster.servers)
    assert cluster.network.inflight_recorder is None
    assert cluster.network.drops_recorder is None


def test_no_decision_annotation_when_off(monkeypatch):
    from repro.cluster.system import ClusterMetrics

    seen = []
    orig = ClusterMetrics.record
    monkeypatch.setattr(
        ClusterMetrics, "record",
        lambda self, req: (seen.append(req), orig(self, req))[1],
    )
    cluster, _ = build_cluster(config(n=100))
    cluster.run()
    assert len(seen) == 100
    assert all(r.decision is None for r in seen)


def test_result_summary_empty_when_off():
    result = run_simulation(config(n=100))
    assert result.telemetry_summary == {}


# ----------------------------------------------------------------------
# bit-identical when on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["heap", "calendar"])
def test_bit_identical_with_telemetry_on(engine):
    base = config(n=600, engine=engine)
    off = run_simulation(base)
    on = run_simulation(base.with_updates(telemetry={"spans": True}))
    assert off.mean_response_time == on.mean_response_time
    assert off.p99_response_time == on.p99_response_time
    assert off.events_executed == on.events_executed
    assert off.message_counts == on.message_counts
    assert off.server_counts == on.server_counts


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_per_request_with_lifecycle_ordering():
    result, report = run_with_telemetry(config(n=300))
    assert len(report.spans) == 300
    assert sorted(s.index for s in report.spans) == list(range(300))
    for span in report.spans:
        assert span.t_created <= span.t_selected <= span.t_enqueued
        assert span.t_enqueued <= span.t_start <= span.t_completed
        assert span.t_completed <= span.t_response
        assert span.response_time == pytest.approx(span.t_response - span.t_created)
    assert result.telemetry_summary["n_spans"] == 300


def test_polling_staleness_is_reply_flight_time():
    # With a constant-latency network the polled queue length is read at
    # the server one reply-flight before the decision: staleness is the
    # same small positive constant for every request.
    _, report = run_with_telemetry(config(n=200))
    staleness = report.staleness()
    assert np.isfinite(staleness).all()
    assert (staleness > 0).all()
    assert (staleness < 1e-3).all()
    assert staleness.max() - staleness.min() < 1e-9


def test_ideal_policy_staleness_zero():
    _, report = run_with_telemetry(
        config(n=100, policy="ideal", policy_params={})
    )
    assert (report.staleness() == 0.0).all()


def test_broadcast_staleness_nonnegative_and_finite():
    _, report = run_with_telemetry(
        config(n=300, policy="broadcast", policy_params={"mean_interval": 0.05})
    )
    staleness = report.staleness()
    assert np.isfinite(staleness).all()
    assert (staleness >= 0).all()
    # Announcements age between broadcasts, so staleness must vary.
    assert staleness.max() > staleness.min()


def test_random_policy_has_no_decision_info():
    _, report = run_with_telemetry(
        config(n=100, policy="random", policy_params={})
    )
    assert np.isnan(report.staleness()).all()
    assert all(math.isnan(s.perceived_load) for s in report.spans)


def test_max_spans_cap():
    _, report = run_with_telemetry(
        config(n=200, telemetry={"spans": True, "max_spans": 50})
    )
    assert len(report.spans) == 50
    assert report.spans_dropped == 150


def test_spans_disabled_still_samples_series():
    _, report = run_with_telemetry(config(n=100, telemetry={"spans": False}))
    assert report.spans == ()
    assert len(report.series["time"]) > 1


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------
def test_series_shapes_and_bounds():
    cfg = config(n=400, telemetry={"spans": True, "sample_interval": 0.02})
    _, report = run_with_telemetry(cfg)
    series = report.series
    n = len(series["time"])
    assert all(len(v) == n for v in series.values())
    assert np.all(np.diff(series["time"]) > 0)
    for i in range(cfg.n_servers):
        queue = series[f"server{i}.queue"]
        util = series[f"server{i}.utilization"]
        assert (queue >= 0).all()
        assert ((0 <= util) & (util <= 1)).all()
    assert (series["net.inflight"] >= 0).all()
    # No chaos installed: nothing may be dropped.
    assert (series["net.dropped"] == 0).all()


def test_resampling_is_exact():
    # The series are post-run evaluations of exact step functions, so a
    # finer grid agrees with the coarse one wherever they share points.
    cluster, _ = build_cluster(config(n=200, telemetry={"spans": True}))
    cluster.run()
    coarse = sample_series(cluster, 0.1)
    fine = sample_series(cluster, 0.05)
    shared = np.isin(fine["time"], coarse["time"])
    for name in coarse:
        np.testing.assert_array_equal(fine[name][shared], coarse[name])


def test_sample_interval_validation():
    cluster, _ = build_cluster(config(n=100, telemetry={"spans": True}))
    with pytest.raises(ValueError):
        sample_series(cluster, 0.0)


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def test_accounting_matches_network_counters():
    _, report = run_with_telemetry(config(n=200))
    accounting = report.accounting
    assert accounting["messages"]["request"] == 200
    assert accounting["messages"]["poll"] == 400  # poll_size=2
    assert accounting["policy"]["polls_sent"] == 400
    assert accounting["dropped"] == {}


# ----------------------------------------------------------------------
# knob validation
# ----------------------------------------------------------------------
def test_config_rejects_unknown_telemetry_key():
    with pytest.raises(ValueError, match="telemetry"):
        config(telemetry={"spanz": True})


def test_collector_knob_validation():
    cluster, _ = build_cluster(config(n=100))
    with pytest.raises(ValueError):
        TelemetryCollector(cluster, sample_interval=0.0)
    with pytest.raises(ValueError):
        TelemetryCollector(cluster, max_spans=0)


def test_span_fields_cover_request_lifecycle():
    for expected in ("t_created", "t_selected", "t_enqueued", "t_start",
                     "t_completed", "t_response", "staleness",
                     "perceived_load"):
        assert expected in SPAN_FIELDS


# ----------------------------------------------------------------------
# attempt records (reliability layer)
# ----------------------------------------------------------------------
def _hardened(n=300, telemetry=None, **kw):
    from repro.experiments.chaos import hardened_reliability_params

    kw.setdefault("cluster_params", {"request_timeout": 0.25, "max_retries": 4})
    kw.setdefault("reliability_params", hardened_reliability_params())
    return config(n=n, telemetry=telemetry or {"spans": True}, **kw)


def test_no_attempts_without_reliability():
    _, report = run_with_telemetry(config(n=100))
    assert report.attempts == ()
    assert "n_attempts" not in run_simulation(
        config(n=100, telemetry={"spans": True})
    ).telemetry_summary


def test_attempts_one_primary_per_dispatch():
    result, report = run_with_telemetry(_hardened(n=200))
    primaries = [a for a in report.attempts if a.kind == "primary"]
    # One primary record per dispatch: requests + retried dispatches.
    assert len(primaries) >= 200
    assert all(a.breaker_state in ("closed", "open", "half_open")
               for a in report.attempts)
    assert all(a.t_dispatch >= 0.0 for a in report.attempts)
    summary = result.telemetry_summary
    assert summary["n_attempts"] == float(len(report.attempts))
    assert summary["n_hedge_attempts"] == float(
        sum(1 for a in report.attempts if a.kind == "hedge")
    )


def test_attempts_capture_hedge_copies():
    from repro.experiments.chaos import (
        chaos_cluster_params,
        chaos_params_for,
        hardened_reliability_params,
    )

    _, report = run_with_telemetry(
        SimulationConfig(
            policy="polling",
            policy_params={"poll_size": 3, "discard_slow": True},
            load=0.8, n_servers=4, n_requests=800, seed=23,
            cluster_params=chaos_cluster_params(),
            chaos_params=chaos_params_for(1.0, n_servers=4),
            reliability_params=hardened_reliability_params(),
            telemetry={"spans": True},
        )
    )
    kinds = {a.kind for a in report.attempts}
    assert kinds == {"primary", "hedge"}
    # Hedge copies carry the same index as a primary attempt.
    primary_indices = {a.index for a in report.attempts if a.kind == "primary"}
    assert all(
        a.index in primary_indices for a in report.attempts if a.kind == "hedge"
    )


def test_attempts_share_max_spans_cap():
    _, report = run_with_telemetry(
        _hardened(n=200, telemetry={"spans": True, "max_spans": 40})
    )
    assert len(report.attempts) <= 40


def test_bit_identical_with_telemetry_on_hardened_run():
    """Telemetry stays observation-only with the reliability layer on."""
    base = _hardened(n=400, telemetry={})
    off = run_simulation(base)
    on = run_simulation(base.with_updates(telemetry={"spans": True}))
    assert off.mean_response_time == on.mean_response_time
    assert off.events_executed == on.events_executed

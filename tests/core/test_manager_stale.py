"""Tests for the centralized manager and stale-snapshot policies."""

import numpy as np

from repro.core import make_policy
from repro.net import MessageKind, PAPER_NET
from tests.core.conftest import build_cluster


def test_manager_poll_time_is_one_tcp_rtt():
    policy = make_policy("manager")
    cluster = build_cluster(policy, n_requests=400, load=0.5)
    metrics = cluster.run()
    assert np.allclose(metrics.poll_time, PAPER_NET.tcp_rtt_nosetup)


def test_manager_counts_drain_to_zero():
    policy = make_policy("manager")
    cluster = build_cluster(policy, n_requests=500, load=0.7)
    cluster.run()
    # Let the last completion notifications arrive.
    cluster.sim.run()
    assert policy._counts.sum() == 0  # no assignment believed in flight
    assert policy.queries_served == 500


def test_manager_message_kinds_accounted():
    policy = make_policy("manager")
    cluster = build_cluster(policy, n_requests=300, load=0.5)
    cluster.run()
    counts = cluster.network.message_counts
    assert counts[MessageKind.MANAGER_QUERY] == 300
    assert counts[MessageKind.MANAGER_REPLY] == 300
    assert counts[MessageKind.MANAGER_NOTIFY] >= 299  # last few may be in flight


def test_manager_near_ideal_performance():
    manager_mean = np.nanmean(
        build_cluster(make_policy("manager"), n_requests=6000, load=0.9, seed=37)
        .run()
        .response_time
    )
    ideal_mean = np.nanmean(
        build_cluster(make_policy("ideal"), n_requests=6000, load=0.9, seed=37)
        .run()
        .response_time
    )
    # Manager pays one TCP RTT and uses assignment counts; must be close.
    assert manager_mean < ideal_mean * 1.3 + PAPER_NET.tcp_rtt_nosetup


def test_manager_balances_exactly_under_light_load():
    policy = make_policy("manager")
    cluster = build_cluster(policy, n_servers=4, n_requests=800, load=0.2)
    metrics = cluster.run()
    counts = metrics.server_counts(4, warmup_fraction=0.0)
    assert counts.max() - counts.min() < 800 * 0.15


def test_manager_empty_candidate_set_reselects_instead_of_raising():
    """The manager decides a network hop after ``select`` returned: with
    every server crashed its empty candidate set must take the reselect
    path, not escape from the delivery. (The dispatcher-tier case is the
    corpus spec ``manager-async-no-candidates``.)"""
    from repro.verify import fuzz

    crashes = [{"kind": "crash", "node": node, "at_frac": 0.3} for node in (0, 1)]
    recoveries = [{"kind": "recover", "node": node, "at_frac": 0.6} for node in (0, 1)]
    spec = {
        "schema": fuzz.SPEC_SCHEMA,
        "config": {
            "policy": "manager", "n_servers": 2, "n_clients": 3, "n_requests": 400,
            "load": 0.776, "seed": 467860621,
            "cluster_params": {
                "availability": True, "availability_refresh": 0.2219,
                "availability_ttl": 0.8149, "request_timeout": 0.1184, "max_retries": 38,
            },
        },
        "schedule": crashes + recoveries,
    }
    assert fuzz.run_spec(spec).ok


def test_stale_jsq_refreshes_counted():
    policy = make_policy("stale_jsq", update_interval=0.01)
    cluster = build_cluster(policy, n_requests=800, load=0.7)
    cluster.run()
    assert policy.refreshes > 10


def test_stale_jsq_fresh_beats_stale():
    fresh_mean = np.nanmean(
        build_cluster(
            make_policy("stale_jsq", update_interval=0.001),
            n_requests=5000, load=0.9, seed=43,
        ).run().response_time
    )
    stale_mean = np.nanmean(
        build_cluster(
            make_policy("stale_jsq", update_interval=1.0),
            n_requests=5000, load=0.9, seed=43,
        ).run().response_time
    )
    assert fresh_mean < stale_mean


def test_stale_jsq_local_increment_mitigates_flocking():
    """Mitzenmacher 2000: adding local corrections to stale info helps."""
    plain = np.nanmean(
        build_cluster(
            make_policy("stale_jsq", update_interval=0.2),
            n_requests=5000, load=0.9, seed=47,
        ).run().response_time
    )
    corrected = np.nanmean(
        build_cluster(
            make_policy("stale_jsq", update_interval=0.2, local_increment=True),
            n_requests=5000, load=0.9, seed=47,
        ).run().response_time
    )
    assert corrected < plain


def test_describe_strings():
    assert make_policy("stale_jsq", update_interval=0.05).describe() == "stale_jsq(50ms)"
    assert (
        make_policy("stale_jsq", update_interval=0.05, local_increment=True).describe()
        == "stale_jsq(50ms)+local"
    )
    assert make_policy("polling", poll_size=3).describe() == "polling(d=3)"
    assert (
        make_policy("polling", poll_size=3, discard_slow=True).describe()
        == "polling(d=3)+discard"
    )
    assert make_policy("broadcast", mean_interval=0.1).describe() == "broadcast(100ms)"

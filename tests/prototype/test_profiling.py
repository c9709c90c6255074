"""Tests for poll-delay profiling (§3.2 reproduction machinery)."""

import numpy as np
import pytest

from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble
from repro.prototype import PrototypeOverheadModel, profile_poll_delays


def build(load=0.9, n_requests=2500, seed=3, poll_size=3):
    cluster = ServiceCluster(
        n_servers=8,
        policy=make_policy("polling", poll_size=poll_size),
        seed=seed,
        overhead=PrototypeOverheadModel(),
    )
    rng = np.random.default_rng(seed)
    mean_service = 0.0222
    gaps = rng.exponential(mean_service / (8 * load), n_requests)
    services = np.full(n_requests, mean_service)
    return assemble(cluster, gaps, services)


def test_profile_counts_every_poll():
    cluster = build(n_requests=500)
    tap = profile_poll_delays(cluster)
    cluster.run()
    profile = tap.profile()
    assert profile.n_polls == 500 * 3


def test_profile_before_any_polls_raises():
    cluster = build()
    tap = profile_poll_delays(cluster)
    with pytest.raises(RuntimeError):
        tap.profile()


def test_profile_high_load_shows_slow_polls():
    cluster = build(load=0.92, n_requests=3000)
    tap = profile_poll_delays(cluster)
    cluster.run()
    profile = tap.profile()
    assert 0.02 < profile.frac_over_10ms < 0.20
    assert 0.0 < profile.frac_over_20ms <= profile.frac_over_10ms
    assert profile.mean_rtt > 290e-6


def test_profile_low_load_mostly_fast():
    cluster = build(load=0.2, n_requests=2000)
    tap = profile_poll_delays(cluster)
    cluster.run()
    profile = tap.profile()
    assert profile.frac_over_10ms < 0.04


def test_profile_row_renders():
    cluster = build(n_requests=300)
    tap = profile_poll_delays(cluster)
    cluster.run()
    row = tap.profile().row()
    assert ">10ms" in row and "mean RTT" in row

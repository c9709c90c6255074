"""Tests for the closed-loop autoscaler (DESIGN.md §16).

Covers the policy value object, the literal config-key mirror, the
zero-overhead guarantee (a cluster built without a policy — or with the
all-default disabled policy — is bit-identical), the availability
requirement, scale-up under pressure, scale-down through clean
low-demand windows, graceful drain (parking a server never loses its
in-flight work), the provisioned-server-seconds integral, and the
soft-state churn regression: a crash/recover cycle must never
resurrect the publisher of a server the autoscaler has parked.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import (
    AutoscalerPolicy,
    FailureInjector,
    ServiceCluster,
)
from repro.cluster.availability import DEFAULT_SERVICE
from repro.core import RandomPolicy
from repro.experiments.runner import assemble


def build(autoscaler=None, n_servers=4, n_requests=200, load=0.5, seed=3,
          mean_service=0.01, availability=None, **kwargs):
    """A small cluster with the ``autoscaler`` policy and the
    ``availability`` knobs (``None``: not installed) installed."""
    cluster = ServiceCluster(
        n_servers=n_servers, policy=RandomPolicy(), seed=seed, **kwargs
    )
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_service / (n_servers * load), n_requests)
    services = rng.exponential(mean_service, n_requests)
    installs = {"autoscaler": asdict(autoscaler)} if autoscaler is not None else {}
    if availability is not None:
        installs["availability"] = availability
    return assemble(cluster, gaps, services, **installs)


def availability_params(**overrides):
    values = dict(
        availability={"refresh": 0.02, "ttl": 0.06},
        request_timeout=0.5, max_retries=3,
    )
    values.update(overrides)
    return values


def scaling_policy(**overrides):
    values = dict(interval=0.05)
    values.update(overrides)
    return AutoscalerPolicy(**values)


# ----------------------------------------------------------------------
# AutoscalerPolicy value object
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"interval": 0.0},
        {"interval": -1.0},
        {"interval": 0.1, "min_servers": 0},
        {"interval": 0.1, "max_servers": -1},
        {"interval": 0.1, "initial_servers": -1},
        {"interval": 0.1, "shed_high": 1.0},
        {"interval": 0.1, "p95_high": 0.0},
        {"interval": 0.1, "util_low": 1.5},
        {"interval": 0.1, "ewma_alpha": 0.0},
        {"interval": 0.1, "step_up": 0},
        {"interval": 0.1, "step_down": 0},
        {"interval": 0.1, "cooldown": -0.1},
    ],
)
def test_policy_rejects_bad_values(kwargs):
    # ewma_alpha is a module constant now: naming it is an unknown keyword
    known = set(kwargs) <= AutoscalerPolicy.field_names()
    with pytest.raises(ValueError if known else TypeError):
        AutoscalerPolicy(**kwargs)


def test_default_policy_is_disabled():
    assert not AutoscalerPolicy().enabled
    assert scaling_policy().enabled


def test_autoscaler_requires_availability():
    with pytest.raises(ValueError):
        build(autoscaler=scaling_policy())


# ----------------------------------------------------------------------
# zero-overhead guarantee
# ----------------------------------------------------------------------

def test_disabled_policy_is_bit_identical_to_no_policy():
    """interval=None must take exactly the legacy code paths."""
    baseline = build(seed=17, n_requests=400, **availability_params())
    disabled = build(
        seed=17, n_requests=400, autoscaler=AutoscalerPolicy(),
        **availability_params(),
    )
    a = baseline.run()
    b = disabled.run()
    assert np.array_equal(a.response_time, b.response_time)
    assert np.array_equal(a.server_id, b.server_id)
    assert baseline.sim.events_executed == disabled.sim.events_executed


# ----------------------------------------------------------------------
# control law
# ----------------------------------------------------------------------

def test_starts_at_initial_servers_and_parks_the_rest():
    cluster = build(
        autoscaler=scaling_policy(min_servers=1, initial_servers=2),
        **availability_params(),
    )
    assert cluster.autoscaler.n_active == 2
    active = [cluster.autoscaler.is_active(s.node_id) for s in cluster.servers]
    assert active == [True, True, False, False]
    # parked servers never started their publishers
    assert not cluster.publishers[cluster.servers[3].node_id].running


def test_scales_up_under_pressure():
    """An under-provisioned pool failing work must grow."""
    cluster = build(
        autoscaler=scaling_policy(
            min_servers=1, shed_high=0.02, p95_high=0.05, step_up=2,
        ),
        n_requests=600, load=0.9,
        **availability_params(request_timeout=0.1, max_retries=5,
                              server_max_queue=4),
    )
    cluster.run()
    counters = cluster.autoscaler.counters()
    assert counters["autoscale_ups"] > 0
    assert cluster.autoscaler.n_active > 1


def test_scales_down_through_clean_low_demand_windows():
    """An over-provisioned pool serving a trickle must shrink."""
    cluster = build(
        autoscaler=scaling_policy(
            min_servers=1, initial_servers=4, util_low=0.5, cooldown=0.0,
        ),
        n_requests=400, load=0.05,
        **availability_params(),
    )
    cluster.run()
    counters = cluster.autoscaler.counters()
    assert counters["autoscale_downs"] > 0
    assert cluster.autoscaler.n_active < 4
    assert counters["autoscale_mean_active"] < 4.0


def test_scale_down_never_loses_inflight_work():
    """Parking actuates through publish withdrawal only: work already
    queued on a parked server drains normally (exactly-once)."""
    cluster = build(
        autoscaler=scaling_policy(
            min_servers=1, initial_servers=4, util_low=0.6, cooldown=0.0,
        ),
        n_requests=500, load=0.2,
        **availability_params(),
    )
    metrics = cluster.run()
    assert cluster.autoscaler.counters()["autoscale_downs"] > 0
    finished = np.isfinite(metrics.response_time)
    # conservation: every request terminal exactly once
    assert int(finished.sum()) + int(metrics.failed.sum()) == 500
    assert int(metrics.failed.sum()) == 0


def test_provisioned_server_seconds_integral():
    cluster = build(
        autoscaler=scaling_policy(min_servers=2, initial_servers=2),
        n_requests=100, load=0.1,
        **availability_params(),
    )
    cluster.run()
    counters = cluster.autoscaler.counters()
    # the pool never left its floor: the integral is exactly 2 × T
    assert counters["autoscale_ups"] == 0
    assert counters["autoscale_mean_active"] == pytest.approx(2.0)
    assert counters["provisioned_server_seconds"] == pytest.approx(
        2.0 * cluster.sim.now
    )


# ----------------------------------------------------------------------
# soft-state churn regression (phantom publisher resurrection)
# ----------------------------------------------------------------------

def test_crash_recover_cycle_keeps_parked_server_silent():
    """Regression: FailureInjector recovery used to restart the
    publisher unconditionally, resurrecting servers the autoscaler had
    deliberately parked (phantom mapping-table entries)."""
    cluster = build(
        autoscaler=scaling_policy(min_servers=2, initial_servers=2),
        n_requests=300, load=0.1,
        **availability_params(),
    )
    parked = cluster.servers[3].node_id
    injector = FailureInjector(cluster)
    injector.schedule_crash(3, at=0.05)
    injector.schedule_recovery(3, at=0.1)
    cluster.run()
    assert not cluster.autoscaler.is_active(parked)
    assert not cluster.publishers[parked].running
    for table in cluster.mapping_tables.values():
        assert parked not in table.available(DEFAULT_SERVICE, 0)


def test_crash_recover_cycle_republishes_active_server():
    """The inverse contract: an *active* server that crashes and
    recovers must rejoin the pool."""
    cluster = build(
        autoscaler=scaling_policy(min_servers=2, initial_servers=2),
        n_requests=300, load=0.1,
        **availability_params(),
    )
    active = cluster.servers[0].node_id
    injector = FailureInjector(cluster)
    injector.schedule_crash(0, at=0.05)
    injector.schedule_recovery(0, at=0.1)
    cluster.run()
    assert cluster.autoscaler.is_active(active)
    assert cluster.publishers[active].running

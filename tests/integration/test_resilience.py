"""Naive vs hardened reliability under identical fault schedules.

The acceptance claim for the reliability layer (ISSUE 4, DESIGN.md §11):
with hedging + circuit breakers enabled, a fixed-seed chaos run shows a
lower p95 response time AND fewer terminal failures than the naive
timeout/retry lifecycle under the *same* fault schedule. Fault schedules
derive from seed substreams the reliability layer never touches, so the
two legs see identical crashes, storms, partitions, and message loss.
"""

import numpy as np
import pytest

from repro.cluster import (
    ReliabilityPolicy,
    ServiceCluster,
)
from repro.core import make_policy
from repro.experiments.chaos import hardened_reliability_params
from repro.experiments.runner import assemble
from repro.sim.rng import RngHub
from repro.workload import make_workload

#: moderately hostile, fixed fault mix: 5% loss, two crash storms,
#: one partition episode — the regime the hardened layer targets
CHAOS = dict(
    loss=0.05, duplicate=0.01, storms=2, storm_size=3, partitions=1,
)


def run_leg(reliability, seed):
    """One leg; ``reliability`` is the reliability knobs (``None``: naive)."""
    hub = RngHub(seed)
    workload = make_workload("poisson_exp", mean_service=0.005)
    gaps, services = workload.generate(hub.stream("workload"), 4_000)
    # Rescale arrivals to 80% offered load on 8 unit-speed servers.
    gaps = gaps * ((0.005 / (8 * 0.8)) / float(gaps.mean()))
    cluster = ServiceCluster(
        8, make_policy("random"), seed=seed, request_timeout=0.25, max_retries=4,
    )
    installs = {"reliability": reliability} if reliability is not None else {}
    assemble(
        cluster, gaps, services, availability={"refresh": 0.2, "ttl": 0.6},
        chaos=CHAOS, **installs,
    )
    metrics = cluster.run()
    summary = metrics.summary()
    return {
        "p95": summary["p95_response_time"],
        "failed": int(metrics.failed.sum()),
        "cluster": cluster,
    }


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 23])
def test_hardened_beats_naive_under_identical_faults(seed):
    naive = run_leg(None, seed)
    hardened = run_leg(hardened_reliability_params(), seed)
    engine = hardened["cluster"].reliability
    # The mechanisms actually engaged.
    assert engine.hedges_launched > 0
    assert engine.hedge_wins > 0
    assert engine.breaker_opens() > 0
    # The acceptance claim: lower tail latency AND fewer terminal losses.
    assert hardened["p95"] < naive["p95"], (
        f"seed {seed}: hardened p95 {hardened['p95']:.3f} not below "
        f"naive {naive['p95']:.3f}"
    )
    assert hardened["failed"] <= naive["failed"], (
        f"seed {seed}: hardened lost {hardened['failed']} requests, "
        f"naive lost {naive['failed']}"
    )


@pytest.mark.slow
def test_identical_fault_schedules_across_modes():
    """Both legs must see the same injected fault events — otherwise the
    comparison above proves nothing."""
    naive = run_leg(None, seed=3)
    hardened = run_leg(hardened_reliability_params(), seed=3)
    assert naive["cluster"].chaos.events == hardened["cluster"].chaos.events
    assert naive["cluster"].chaos.crash_log == hardened["cluster"].chaos.crash_log


def test_hardened_params_shape():
    """The canonical hardened parameters stay hedging + breakers only
    (deadline/backoff knobs are opt-in extras, not part of the tuned
    default) — the integration claim above is tied to these values."""
    params = hardened_reliability_params()
    assert set(params) == {"hedge_quantile", "breaker_threshold", "breaker_cooldown"}
    policy = ReliabilityPolicy(**params)
    assert policy.enabled and policy.deadline is None

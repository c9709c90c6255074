"""Static-bound vs adaptive overload control under identical arrivals.

The acceptance claim for the overload subsystem (ISSUE 5, DESIGN.md
§12): at 2× offered load under bursty MMPP arrivals, a fixed-seed run
with overload control ON shows strictly higher goodput AND a strictly
lower p95-of-successes than the naive static-bound configuration under
the *same* arrival schedule. Arrival/service schedules derive from seed
substreams the overload layer never touches, so both legs see identical
offered work; the difference is purely what the servers do with it —
the static leg buffers 3.2 s of work per server, fails the deep entries
at their retry deadline, and then serves them anyway (wasted capacity),
while the adaptive leg sheds early and keeps admitted sojourns short.
"""

import numpy as np
import pytest

from repro.cluster import OverloadPolicy, ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble
from repro.experiments.overload import (
    overload_cluster_params,
    overload_control_params,
)
from repro.sim.rng import RngHub
from repro.workload import make_workload

N_SERVERS = 8
N_REQUESTS = 2_000
OFFERED_LOAD = 2.0
MEAN_SERVICE = 0.05  # the mmpp_exp default (POISSON_EXP_MEAN_SERVICE)


def run_leg(overload, seed):
    """One leg; ``overload`` is the overload knobs (``None``: static bound only)."""
    hub = RngHub(seed)
    workload = make_workload("mmpp_exp")
    gaps, services = workload.generate(hub.stream("workload"), N_REQUESTS)
    # Rescale arrivals to the offered load on N_SERVERS unit-speed
    # servers — identically for both legs (same substream, same scale).
    gaps = gaps * ((MEAN_SERVICE / (N_SERVERS * OFFERED_LOAD)) / float(gaps.mean()))
    params = overload_cluster_params()
    assert params["availability"]
    cluster = ServiceCluster(
        N_SERVERS, make_policy("random"), seed=seed,
        request_timeout=params["request_timeout"],
        max_retries=params["max_retries"],
        server_max_queue=params["server_max_queue"],
    )
    installs = {"overload": overload} if overload is not None else {}
    assemble(
        cluster, gaps, services,
        availability={"refresh": params["availability_refresh"],
                      "ttl": params["availability_ttl"]},
        **installs,
    )
    metrics = cluster.run()
    responses = metrics.response_time[np.isfinite(metrics.response_time)]
    return {
        # goodput and tail over *all* successes, warmup included — the
        # whole run is the overload episode under test
        "goodput": (N_REQUESTS - int(metrics.failed.sum())) / N_REQUESTS,
        "p95": float(np.percentile(responses, 95)),
        "arrivals": gaps,
        "cluster": cluster,
    }


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adaptive_beats_static_at_twice_capacity(seed):
    static = run_leg(None, seed)
    adaptive = run_leg(overload_control_params(), seed)
    counters = adaptive["cluster"].overload_counters()
    # The mechanisms actually engaged.
    assert counters["requests_shed"] > 0
    assert counters["rejects_sent"] > 0
    assert counters["overload_withdrawals"] > 0
    # The acceptance claim: strictly higher goodput AND strictly lower
    # p95 over the successes, same arrival schedule.
    assert adaptive["goodput"] > static["goodput"], (
        f"seed {seed}: adaptive goodput {adaptive['goodput']:.3f} not above "
        f"static {static['goodput']:.3f}"
    )
    assert adaptive["p95"] < static["p95"], (
        f"seed {seed}: adaptive p95 {adaptive['p95']:.3f} not below "
        f"static {static['p95']:.3f}"
    )


@pytest.mark.slow
def test_identical_arrival_schedules_across_modes():
    """Both legs must see the same offered work — otherwise the
    comparison above proves nothing."""
    static = run_leg(None, seed=0)
    adaptive = run_leg(overload_control_params(), seed=0)
    np.testing.assert_array_equal(static["arrivals"], adaptive["arrivals"])
    # The static leg never sheds, NACKs, or withdraws.
    assert static["cluster"].overload_counters() == {
        "requests_rejected": float(
            sum(s.rejected_count for s in static["cluster"].servers)
        )
    }


def test_overload_control_params_shape():
    """The canonical adaptive parameters: CoDel-style admission with
    probe jitter and availability withdrawal (fast_reject stays at its
    default True) — the integration claim above is tied to these."""
    params = overload_control_params()
    assert set(params) == {
        "sojourn_target", "interval", "ewma_alpha", "shed_jitter",
        "withdraw_after",
    }
    policy = OverloadPolicy(**params)
    assert policy.enabled and policy.fast_reject

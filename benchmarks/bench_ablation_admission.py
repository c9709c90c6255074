"""Ablation: admission control under overload (the paper's scope edge).

The paper measures mean response time and explicitly leaves admission
control (and therefore throughput) out of scope (§2). This bench steps
over that edge: drive the cluster at 120% of capacity and compare
unbounded queues against a bounded-queue admission policy. Expected
shape: without admission, latency grows without bound over the run and
nothing is shed; with admission, a fraction of requests is rejected but
accepted requests see bounded, predictable latency — and goodput
(completions within 2 s) is higher.
"""

import numpy as np

from benchmarks.conftest import scaled
from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.experiments.results import ResultTable

OVERLOAD = 1.5
MEAN_SERVICE = 0.02
N_SERVERS = 8
DEADLINE = 2.0


def _run(n_requests: int, max_queue, poll_size=2, seed=0):
    cluster = ServiceCluster(
        n_servers=N_SERVERS,
        policy=make_policy("polling", poll_size=poll_size, discard_slow=True),
        seed=seed,
        server_max_queue=max_queue,
        max_retries=4,
    )
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(MEAN_SERVICE / (N_SERVERS * OVERLOAD), n_requests)
    services = rng.exponential(MEAN_SERVICE, n_requests)
    cluster.load_workload(gaps, services)
    metrics = cluster.run()
    finite = np.isfinite(metrics.response_time)
    in_deadline = finite & (metrics.response_time <= DEADLINE)
    return {
        "goodput_fraction": float(in_deadline.mean()),
        "shed_fraction": float(metrics.failed.mean()),
        "accepted_mean_ms": float(metrics.response_time[finite].mean() * 1e3),
        "accepted_p99_ms": float(np.percentile(metrics.response_time[finite], 99) * 1e3),
        "rejections": sum(s.rejected_count for s in cluster.servers),
    }


def test_admission_overload(report):
    n = scaled(25_000)

    results = {
        "unbounded": _run(n, max_queue=None),
        "max_queue=20": _run(n, max_queue=20),
        "max_queue=50": _run(n, max_queue=50),
    }

    table = ResultTable(
        ["policy", "goodput_fraction", "shed_fraction", "accepted_mean_ms",
         "accepted_p99_ms"]
    )
    for label, row in results.items():
        table.add(policy=label, goodput_fraction=row["goodput_fraction"],
                  shed_fraction=row["shed_fraction"],
                  accepted_mean_ms=row["accepted_mean_ms"],
                  accepted_p99_ms=row["accepted_p99_ms"])
    report(
        "ablation_admission",
        f"== Admission control at {OVERLOAD:.0%} offered load "
        f"(goodput = completed within {DEADLINE:.0f}s) ==\n" + table.render(),
    )

    unbounded = results["unbounded"]
    bounded = results["max_queue=20"]
    # Without admission nothing is shed but latency runs away.
    assert unbounded["shed_fraction"] == 0.0
    assert bounded["rejections"] > 0
    # Admission bounds accepted latency and improves goodput.
    assert bounded["accepted_p99_ms"] < 0.5 * unbounded["accepted_p99_ms"]
    assert bounded["goodput_fraction"] > unbounded["goodput_fraction"]
    # Tighter bound sheds more.
    assert results["max_queue=20"]["shed_fraction"] >= results["max_queue=50"][
        "shed_fraction"
    ]

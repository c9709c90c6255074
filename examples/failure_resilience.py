#!/usr/bin/env python3
"""Transient failures: soft state + retries route around a crash.

The paper's §3.1 claim: the flat publish/subscribe architecture lets
the cluster "operate smoothly in the presence of transient failures".
This example crashes one of four servers mid-run and recovers it later,
then prints a timeline of where requests landed and how response times
moved — no operator action, no central failure detector.

Usage:  python examples/failure_resilience.py
"""

import numpy as np

from repro.cluster import FailureInjector, ServiceCluster
from repro.core import make_policy
from repro.experiments.runner import assemble

N_REQUESTS = 12_000
N_SERVERS = 4
MEAN_SERVICE = 5e-3
LOAD = 0.6
CRASH_AT, RECOVER_AT = 3.0, 8.0


def main() -> None:
    cluster = ServiceCluster(
        n_servers=N_SERVERS,
        policy=make_policy("polling", poll_size=2, discard_slow=True),
        seed=99,
        n_clients=3,
        request_timeout=1.0,
        max_retries=8,
    )
    rng = np.random.default_rng(99)
    gaps = rng.exponential(MEAN_SERVICE / (N_SERVERS * LOAD), N_REQUESTS)
    services = rng.exponential(MEAN_SERVICE, N_REQUESTS)
    # Soft state: servers republish every 0.2 s, entries expire after 0.5 s.
    assemble(cluster, gaps, services, availability={"refresh": 0.2, "ttl": 0.5})

    injector = FailureInjector(cluster)
    injector.schedule_crash(1, at=CRASH_AT)
    injector.schedule_recovery(1, at=RECOVER_AT)

    metrics = cluster.run()

    print(
        f"{N_REQUESTS} requests over {N_SERVERS} servers; node 1 crashes at "
        f"t={CRASH_AT:.0f}s, recovers at t={RECOVER_AT:.0f}s "
        f"(soft-state TTL 0.5s)\n"
    )
    print("t window     per-server completions           mean resp   retries")
    edges = np.arange(0.0, metrics.arrival_time[-1] + 1.0, 1.0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        window = (metrics.arrival_time >= lo) & (metrics.arrival_time < hi)
        if not window.any():
            continue
        counts = np.bincount(
            metrics.server_id[window & (metrics.server_id >= 0)],
            minlength=N_SERVERS,
        )
        mean_ms = np.nanmean(metrics.response_time[window]) * 1e3
        retries = int(metrics.retries[window].sum())
        marks = ""
        if lo <= CRASH_AT < hi:
            marks = "  <- crash"
        if lo <= RECOVER_AT < hi:
            marks += "  <- recovery"
        print(
            f"[{lo:4.0f},{hi:4.0f})  "
            + "  ".join(f"n{i}={c:4d}" for i, c in enumerate(counts))
            + f"   {mean_ms:7.2f}ms   {retries:5d}{marks}"
        )
    lost = int(metrics.failed.sum())
    print(f"\nfailed requests: {lost} / {N_REQUESTS}"
          f"   (every request either completed or was retried to completion)")


if __name__ == "__main__":
    main()

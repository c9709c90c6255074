"""The bytes a run with every subsystem on writes, pinned by sha256.

The golden archives pin telemetry-off, oracle-off runs only. Here each
config turns on all seven subsystems — chaos, telemetry, reliability
with hedging, overload with ``fast_reject``, the dispatcher tier, the
autoscaler and the invariant oracle — and one more cell bounds the
server queues with no overload controller, so a full queue refuses a
request locally (no NACK on the wire). Every config runs on the heap
and on the calendar engine; both must write the same bytes:

- the ``save_results`` record (``wall_seconds`` and ``config.engine``
  left out);
- ``spans.jsonl`` and ``attempts.jsonl`` from ``save_telemetry``.

The digests are literals, so a change to the request lifecycle that
moves any of these bytes fails here. The set is chosen so that every
lifecycle point fires: a request is lost (``requests_lost``), a hedge
copy wins (``hedge_wins``), an attempt times out
(``request_timeouts_fired``), a server dies under a request
(``server_loss_retries``), and a server refuses one
(``rejects_signaled``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.chaos import chaos_cluster_params, hardened_reliability_params
from repro.experiments.config import SimulationConfig
from repro.experiments.io import save_results, save_telemetry
from repro.experiments.runner import run_with_telemetry

_ALL_SEVEN = dict(
    cluster_params=chaos_cluster_params(),
    chaos_params={
        "loss": 0.02,
        "duplicate": 0.02,
        "jitter_mean": 1e-4,
        "stragglers": 1,
        "partitions": 1,
        "storms": 1,
        "storm_size": 2,
        "dispatcher_storms": 1,
    },
    telemetry={"spans": True, "sample_interval": 0.05},
    reliability_params={
        **hardened_reliability_params(),
        "backoff_base": 0.002,
        "retry_budget": 50.0,
    },
    overload_params={"sojourn_target": 0.02, "fast_reject": True},
    dispatcher_params={"count": 2, "assignment": "failover"},
    autoscaler_params={"min_servers": 6, "max_servers": 8, "interval": 0.2},
    verify_params={"enabled": True},
)

CONFIGS = {
    "polling": SimulationConfig(
        policy="polling", policy_params={"poll_size": 2},
        n_servers=8, n_requests=800, load=0.5, seed=1, **_ALL_SEVEN,
    ),
    "least_connections": SimulationConfig(
        policy="least_connections",
        n_servers=8, n_requests=800, load=0.5, seed=2, **_ALL_SEVEN,
    ),
    "broadcast": SimulationConfig(
        policy="broadcast", policy_params={"mean_interval": 0.05},
        n_servers=8, n_requests=800, load=0.6, seed=3, **_ALL_SEVEN,
    ),
    "random": SimulationConfig(
        policy="random", n_servers=8, n_requests=800, load=0.7, seed=4, **_ALL_SEVEN,
    ),
    # A bounded queue and no overload controller: the refusal is local.
    "local_reject": SimulationConfig(
        policy="random", n_servers=8, n_requests=800, load=0.8, seed=5,
        cluster_params={"server_max_queue": 2, "max_retries": 3},
        telemetry={"spans": True},
        reliability_params={"breaker_threshold": 4, "breaker_cooldown": 0.3},
        dispatcher_params={"count": 2},
        verify_params={"enabled": True},
    ),
}

#: (record, spans.jsonl, attempts.jsonl) sha256 per config
PINNED = {
    "polling": (
        "a7979081f74f87a41be8da2aeab8415810453120d84e004213a653ae1810c118",
        "fea039bf1a9e73e9cbc4ba56250aae3f824fe86fa69f505b503dff5ddb613d42",
        "13bca62a52da7c8b28d4a6d1109f00cd046625facd9faae3f1b3c743ced1f40c",
    ),
    "least_connections": (
        "fd12fd73fa5a53315828fcc70b185fd10589ce5c3c86983f9f252f8c0230069f",
        "6e572d3e48e883407fe23490275ba974e6e55a2c11421b23ba81ca2be3bd7241",
        "b5bbaab232bcf1beac1edfb4f958ce800f431fd017f9b303fcc53c09b865c5ce",
    ),
    "broadcast": (
        "d81c35023df94a6b0a836498246e9cbcb38b22629f3132eae8b8ce1533d30f65",
        "0bdc5a0ef03a4e84b39f1dc995db00ae32d656ad235cd790241a59c4b879adcd",
        "2b7df7b9afb1c7016fd07501d74f38258099a52606e8cdda3d4841a8ef6bb077",
    ),
    "random": (
        "b988e8aa639a333a20a87999d6dd0698513dbb793e707f802d0df49cf2bc7e73",
        "af308141c828cab7e912740f9e62ba0d5c1bed1f14f0c934b2ac4382bc399b96",
        "eec50d4e3b584e2b24c83447cd42c08448d7bb058953873e644f9002cf161f81",
    ),
    "local_reject": (
        "d75cb0e9a1a93abc1e88bad3929bf57de685f12134cb695878fd819d8473e6ac",
        "aec97a82e9da836a306f6265957056958f811208671675e03960b01861a76e9c",
        "d3fbca441ddce98b173c6a99b5e5c83a1a650a6361c3126ca3f6141a8487fcfe",
    ),
}

#: counters whose being non-zero somewhere in the set shows a lifecycle
#: point fired
POINT_COUNTERS = (
    "requests_lost",
    "hedge_wins",
    "request_timeouts_fired",
    "server_loss_retries",
    "rejects_signaled",
)


def _digests(config: SimulationConfig, tmp_path: Path):
    result, report = run_with_telemetry(config)
    save_results([result], tmp_path / "archive.json")
    record = json.loads((tmp_path / "archive.json").read_text())["results"][0]
    del record["wall_seconds"], record["config"]["engine"]
    paths = save_telemetry(report, tmp_path)
    digests = (
        hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(),
        hashlib.sha256(paths["spans"].read_bytes()).hexdigest(),
        hashlib.sha256(paths["attempts"].read_bytes()).hexdigest(),
    )
    return digests, result.chaos_counters


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name, config in CONFIGS.items():
        for engine in ("heap", "calendar"):
            tmp_path = tmp_path_factory.mktemp(f"{name}-{engine}")
            out[name, engine] = _digests(config.with_updates(engine=engine), tmp_path)
    return out


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_subsystem_on_writes_the_pinned_bytes(runs, name, engine):
    digests, _ = runs[name, engine]
    assert digests == PINNED[name]


def test_the_set_reaches_every_lifecycle_point(runs):
    totals = {
        key: sum(counters.get(key, 0.0) for _, counters in runs.values())
        for key in POINT_COUNTERS
    }
    assert all(totals.values()), totals
    # no overload controller: every refusal in this cell took the local path
    assert runs["local_reject", "heap"][1]["rejects_signaled"] > 0

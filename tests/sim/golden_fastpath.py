"""Shared grid and digest for the fast-engine golden file.

``--engine fast`` is approximate against the exact engines (tier 2 is a
KS band), but it is *exact against itself*: a kernel rewrite that keeps
the tick semantics and the RNG draw order must reproduce every output
bit. ``tests/sim/golden/fastpath_digests.json`` pins that — one entry
per cell of the grid below, holding a sha256 over the per-request
arrays plus the integer accounting — and
``tests/sim/test_fastpath_golden.py`` replays the grid against it.

The file was first written at commit ``15e05e9`` (the per-tick loop
with the concatenated pending pool). Regenerating it with
``regen_fastpath_digests.py`` uses the code on disk, so only do that
when fast-engine outputs are *supposed* to change.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Optional

from repro.experiments.config import SimulationConfig
from repro.sim.fastpath import FastpathRun

GOLDEN_PATH = Path(__file__).parent / "golden" / "fastpath_digests.json"

#: a tick above half the broadcast interval, so a server whose jittered
#: interval draws near 0.5x announces twice inside one tick; it also
#: does not divide the snapshot interval
COARSE_TICK = 0.006

POLICIES = (
    ("random", "random", {}),
    ("polling", "polling", {"poll_size": 2}),
    # a deadline under one UDP round trip: the first-reply degenerate path
    (
        "polling-discard",
        "polling",
        {"poll_size": 3, "discard_slow": True, "discard_timeout": 100e-6},
    ),
    ("broadcast", "broadcast", {"mean_interval": 0.01}),
    ("stale_jsq", "stale_jsq", {"update_interval": 0.02}),
)

#: N -> requests; N=16 runs near one arrival per tick (many ticks per
#: request), N=1000 packs ~11 arrivals into each
SIZES = {16: 1_000, 1000: 12_000}
LOADS = (0.5, 0.9)
TICKS: tuple[Optional[float], ...] = (None, COARSE_TICK)


def golden_cells() -> list[tuple[str, SimulationConfig, Optional[float]]]:
    """``(key, config, tick)`` for every pinned cell."""
    cells = []
    for label, policy, params in POLICIES:
        for n_servers, n_requests in SIZES.items():
            for load in LOADS:
                for tick in TICKS:
                    tick_name = "default" if tick is None else f"{tick:g}"
                    config = SimulationConfig(
                        policy=policy,
                        policy_params=dict(params),
                        workload="poisson_exp",
                        load=load,
                        n_servers=n_servers,
                        n_requests=n_requests,
                        seed=0,
                        engine="fast",
                    )
                    key = f"{label}/N={n_servers}/load={load:g}/tick={tick_name}"
                    cells.append((key, config, tick))
    return cells


def digest(run: FastpathRun) -> dict[str, Any]:
    """What the golden file holds for one run."""
    sha = hashlib.sha256()
    metrics = run.metrics
    for array in (metrics.response_time, metrics.queue_wait, metrics.server_id):
        sha.update(array.tobytes())
    return {
        "sha256": sha.hexdigest(),
        "ticks": run.ticks,
        "message_counts": dict(run.message_counts),
        "policy_counters": dict(run.policy_counters),
    }

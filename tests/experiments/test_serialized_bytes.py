"""The bytes a config and a result serialize to, pinned against ``asdict``.

Cache keys and archive records are built by a shallow field walk plus a
JSON ``default`` hook. Every cache entry ever written, and every archive
under ``tests/experiments/golden/``, was keyed and written through
``dataclasses.asdict``, which deep-copies first. This file keeps that
``asdict`` path as the reference and holds the current code to it, byte
for byte:

- every result in the golden archives;
- every cell of the five builtin specs at their ``--quick`` sizes;
- edge configs: a prototype config with ``full_load_rho``, a
  ``server_speeds`` tuple, a ``PollDelayModel`` inside
  ``overhead_params``, and every params dict non-empty.

``_PINNED_KEYS`` are literal digests taken from the ``asdict`` code, so
neither side of the comparison can drift with the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import __version__, cli
from repro.experiments.cache import config_key
from repro.experiments.config import SimulationConfig
from repro.experiments.io import load_results, save_results
from repro.experiments.runner import SimulationResult
from repro.experiments.scenario import BUILTIN_SCENARIOS, builtin_spec
from repro.prototype.overhead import PollDelayModel

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_ARCHIVES = sorted(GOLDEN_DIR.glob("*.json"))

#: the ``repro`` command that runs each builtin spec (bare ``repro scenario``
#: runs ``composed``)
_COMMAND = {name: name for name in BUILTIN_SCENARIOS} | {"composed": "scenario"}

EDGE_CONFIGS = {
    "default": SimulationConfig(),
    "prototype_full_load_rho": SimulationConfig(
        model="prototype", full_load_rho=0.8125, load=0.7,
        overhead_params={"poll_cpu_cost": 2e-4},
    ),
    "server_speeds": SimulationConfig(
        policy="random", n_servers=4, server_speeds=(1.0, 1.0, 2.0, 0.5),
    ),
    "poll_delay_model": SimulationConfig(
        model="prototype",
        overhead_params={"poll_delay": PollDelayModel(quantum=5e-3), "poll_send_cost": 1e-5},
    ),
    "every_params_dict": SimulationConfig(
        policy="polling",
        policy_params={"poll_size": 3, "discard_slow": True},
        workload="poisson_lognormal",
        workload_params={"mean_service": 0.02, "cv": 1.5},
        n_servers=8,
        seed=7,
        label="every dict",
        cluster_params={"availability": True, "request_timeout": 0.5, "max_retries": 2},
        chaos_params={"loss": 0.05, "stragglers": 1, "partition_servers": [0, 3]},
        telemetry={"spans": True, "sample_interval": 0.01},
        reliability_params={"deadline": 1.0, "hedge_quantile": 0.9},
        overload_params={"sojourn_target": 0.05, "fast_reject": True},
        dispatcher_params={"count": 2, "assignment": "failover"},
        autoscaler_params={"min_servers": 4, "max_servers": 8, "interval": 0.5},
        verify_params={"enabled": True, "check_interval": 0.1},
    ),
}

#: ``config_key`` of each edge config, computed by the ``asdict`` code at
#: library version 1.0.0 (the version is hashed in: a release re-pins)
_PINNED_KEYS = {
    "default": "09dea842dc4a35fb98dd51a65d30e4e1117b3707ed1742f540aabc15f12598c1",
    "prototype_full_load_rho": "a4bc0997f3f526f1a3a6059dc9c79d5e7b656b784469f253041cadd51184a062",
    "server_speeds": "c26e7aea17e25cfd361edc23a249c057f89d1cd993828c92f0fb4ec3c2a9a732",
    "poll_delay_model": "79656e3afed2ba38c7f53d7d66725ffaea954f85124985099e1d435f6823e49e",
    "every_params_dict": "066bff240fae844aa77493b3c3cfddcf61308082ded75b0c358b52f9f4866776",
}


def _reference_key(config: SimulationConfig) -> str:
    """``config_key`` as it was written before the field walk."""
    payload = {
        "config": asdict(config),
        "library_version": __version__,
        "schema_version": 1,
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reference_archive(results) -> str:
    """``save_results`` as it was written before the field walk."""
    document = {
        "schema_version": 1,
        "library_version": __version__,
        "results": [asdict(result) for result in results],
    }
    return json.dumps(document, indent=1, sort_keys=True)


def _result_for(config: SimulationConfig) -> SimulationResult:
    """A result carrying ``config``, with every kind of field value set."""
    return SimulationResult(
        config=config,
        mean_response_time=0.0125,
        p50_response_time=0.01,
        p90_response_time=0.02,
        p99_response_time=0.05,
        mean_poll_time=1e-4,
        n_measured=900,
        n_failed=3,
        nominal_rho=0.9,
        wall_seconds=0.25,
        events_executed=12345,
        message_counts={"poll": 10, "request": 5},
        policy_counters={"discarded": 1},
        stolen_cpu=0.5,
        server_counts=(3, 2, 5),
        p95_response_time=math.nan,
        chaos_counters={"dropped": 2.0},
        telemetry_summary={"staleness_mean": 0.001},
    )


def _assert_same_bytes(results, tmp_path):
    for result in results:
        assert config_key(result.config) == _reference_key(result.config), (
            result.config.describe()
        )
    path = tmp_path / "archive.json"
    save_results(results, path)
    assert path.read_text() == _reference_archive(results)


def test_the_golden_archives_are_all_here():
    assert len(GOLDEN_ARCHIVES) == 12


@pytest.mark.parametrize("path", GOLDEN_ARCHIVES, ids=lambda p: p.stem)
def test_golden_archive_keys_and_records_match_asdict(path, tmp_path):
    results = load_results(path)
    assert results
    _assert_same_bytes(results, tmp_path)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_quick_cells_match_asdict(name, tmp_path):
    """The cells ``repro <command> --quick --seed 0`` runs."""
    quick_requests = cli._COMMANDS[_COMMAND[name]].sizes[0]
    cells = builtin_spec(name, quick=True, seed=0, n_requests=quick_requests).expand()
    _assert_same_bytes([_result_for(cell.config) for cell in cells], tmp_path)


@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_configs_match_asdict(name, tmp_path):
    _assert_same_bytes([_result_for(EDGE_CONFIGS[name])], tmp_path)


@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_config_keys_are_pinned(name):
    assert config_key(EDGE_CONFIGS[name]) == _PINNED_KEYS[name]

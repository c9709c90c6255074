"""Tests for the persistent result cache."""

import json

import pytest

from repro.experiments import SimulationConfig, parallel_sweep, run_simulation
from repro.experiments.cache import ResultCache, config_key
from tests.experiments.test_io import MALFORMED_ARCHIVES


def small(**kwargs):
    defaults = dict(
        policy="random", workload="poisson_exp", load=0.7,
        n_servers=2, n_requests=300, seed=5,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------

def test_key_is_stable_and_deterministic():
    assert config_key(small()) == config_key(small())


def test_key_covers_every_config_field():
    base = config_key(small())
    assert config_key(small(seed=6)) != base
    assert config_key(small(load=0.8)) != base
    assert config_key(small(policy="round_robin")) != base
    assert config_key(small(engine="calendar")) != base
    assert config_key(small(policy_params={"poll_size": 2},
                            policy="polling")) != base


def test_key_changes_with_library_version(monkeypatch):
    base = config_key(small())
    import repro

    monkeypatch.setattr(repro, "__version__", "999.0.0")
    assert config_key(small()) != base


# ----------------------------------------------------------------------
# get/put
# ----------------------------------------------------------------------

def test_miss_then_hit_roundtrip(cache):
    config = small()
    assert cache.get(config) is None
    result = run_simulation(config)
    cache.put(result)
    assert config in cache
    restored = cache.get(config)
    assert restored == result  # field-for-field, frozen dataclass equality
    assert cache.stats() == {"hits": 1, "misses": 1, "writes": 1}


def test_corrupt_entry_is_a_miss(cache):
    config = small()
    cache.put(run_simulation(config))
    path = cache._path(config_key(config))
    path.write_text("{ not json")
    assert cache.get(config) is None


def test_wrong_schema_entry_is_a_miss(cache):
    config = small()
    cache.put(run_simulation(config))
    path = cache._path(config_key(config))
    document = json.loads(path.read_text())
    document["schema_version"] = 99
    path.write_text(json.dumps(document))
    assert cache.get(config) is None


@pytest.mark.parametrize("name", sorted(MALFORMED_ARCHIVES))
def test_an_entry_that_is_json_but_no_archive_is_a_miss_then_overwritten(name, cache):
    config = small()
    result = run_simulation(config)
    path = cache._path(config_key(config))
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(MALFORMED_ARCHIVES[name][0]))
    assert cache.get(config) is None
    cache.put(result)
    assert cache.get(config) == result
    assert cache.stats() == {"hits": 1, "misses": 1, "writes": 1}


def test_len_and_clear(cache):
    assert len(cache) == 0
    for seed in (1, 2, 3):
        cache.put(run_simulation(small(seed=seed)))
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_clear_sweeps_orphaned_tmp_files(cache):
    """A writer dying before os.replace leaves a <hash>.tmp.<pid> file;
    clear() removes it without counting it as an entry."""
    cache.put(run_simulation(small()))
    orphan = cache.root / "ab" / ("c" * 64 + ".tmp.12345")
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("{partial")
    assert len(cache) == 1  # orphan invisible to the entry count
    assert cache.clear() == 1
    assert not orphan.exists()
    assert not list(cache.root.glob("*/*"))


# ----------------------------------------------------------------------
# parallel_sweep integration
# ----------------------------------------------------------------------

def test_sweep_cache_skips_simulation(cache):
    configs = [small(seed=s) for s in range(4)]
    cold = parallel_sweep(configs, parallel=False, cache=cache)
    assert cache.writes == 4
    warm = parallel_sweep(configs, parallel=False, cache=cache)
    assert cache.hits == 4 and cache.writes == 4  # nothing re-simulated
    assert warm == cold


def test_sweep_cache_partial_hit(cache):
    configs = [small(seed=s) for s in range(4)]
    parallel_sweep(configs[:2], parallel=False, cache=cache)
    results = parallel_sweep(configs, parallel=False, cache=cache)
    assert cache.hits == 2 and cache.writes == 4
    # input order preserved across the hit/miss split
    assert [r.config.seed for r in results] == [0, 1, 2, 3]


def test_cached_results_match_fresh(cache):
    configs = [small(seed=s) for s in (1, 2)]
    fresh = parallel_sweep(configs, parallel=False)
    parallel_sweep(configs, parallel=False, cache=cache)
    cached = parallel_sweep(configs, parallel=False, cache=cache)
    assert cache.hits == len(configs)
    assert [(r.config, r.digest()) for r in cached] == [
        (r.config, r.digest()) for r in fresh
    ]


def test_engine_override_keys_separately(cache):
    configs = [small(seed=1)]
    parallel_sweep(configs, parallel=False, cache=cache, engine="heap")
    parallel_sweep(configs, parallel=False, cache=cache, engine="calendar")
    assert cache.writes == 2  # engines never alias each other's entries
    assert cache.hits == 0


def test_prototype_config_hits_despite_calibration(cache):
    """full_load_rho resolution happens before keying, so a prototype
    config with full_load_rho=None still hits on re-run."""
    config = small(model="prototype", n_requests=300)
    assert config.full_load_rho is None
    parallel_sweep([config], parallel=False, cache=cache)
    parallel_sweep([config], parallel=False, cache=cache)
    assert cache.hits == 1 and cache.writes == 1

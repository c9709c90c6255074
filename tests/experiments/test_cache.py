"""Tests for the persistent result cache."""

import json

import pytest

from repro.experiments import (
    ScenarioSpec,
    SimulationConfig,
    builtin_spec,
    cache as cache_module,
    parallel_sweep,
    run_simulation,
    scenario,
)
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
    restored = cache.get(config)
    assert restored == result  # field-for-field, frozen dataclass equality
    assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)


def test_corrupt_entry_is_a_miss(cache):
    config = small()
    cache.put(run_simulation(config))
    path = cache._path(config_key(config))
    path.write_text("{ not json")
    assert cache.get(config) is None


def test_a_corrupt_entry_is_a_miss_by_every_answer_the_cache_gives(cache):
    """``get``, the counters and a sweep all call a corrupt entry a miss.
    The cache has no membership test or size that could call it present:
    the deleted ``__contains__`` and ``__len__`` both did."""
    config = small()
    result = run_simulation(config)
    cache.put(result)
    cache._path(config_key(config)).write_text("{ not json")
    assert cache.get(config) is None
    assert (cache.hits, cache.misses, cache.writes) == (0, 1, 1)
    with pytest.raises(TypeError):
        config in cache
    with pytest.raises(TypeError):
        len(cache)
    [again] = parallel_sweep([config], parallel=False, cache=cache)
    assert again.digest() == result.digest()
    assert (cache.hits, cache.misses, cache.writes) == (0, 2, 2)


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
    assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)


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


# ----------------------------------------------------------------------
# one key per cell per run
# ----------------------------------------------------------------------

@pytest.fixture
def keyed(monkeypatch):
    """Every config ``config_key`` is called on, wherever it is bound."""
    calls = []

    def counting(config):
        calls.append(config)
        return config_key(config)

    monkeypatch.setattr(cache_module, "config_key", counting)
    monkeypatch.setattr(scenario, "config_key", counting)
    return calls


def test_a_scenario_keys_each_cell_once_per_run(tmp_path, keyed):
    """``expand``'s duplicate check computes the key the sweep reads and
    writes under: 32 keys for the 32 cells, cold or warm (three per cell
    cold and two warm when each step keyed the config itself)."""
    spec = builtin_spec("composed", quick=True, n_requests=200)
    cache = ResultCache(tmp_path / "plain")
    cold = spec.run(parallel=False, cache=cache)
    assert len(cold.cells) == len(keyed) == 32
    keyed.clear()
    warm = spec.run(parallel=False, cache=ResultCache(cache.root))
    assert len(keyed) == 32
    assert warm.render() == cold.render()
    keyed.clear()
    spec.run(parallel=False, cache=ResultCache(tmp_path / "verified"), verify=True)
    assert len(keyed) == 32
    assert all(config.verify_params == {"enabled": True} for config in keyed)


def test_a_cell_the_sweep_replaces_is_keyed_again(cache, keyed):
    """``prepare_configs`` fills a prototype cell's ``full_load_rho``, so
    the key ``expand`` computed is not that config's: the sweep keys it
    once more, and once only for both the lookup and the write."""
    spec = ScenarioSpec(
        n_servers=2, n_requests=300, config_overrides={"model": "prototype"}
    )
    [result] = spec.run(parallel=False, cache=cache).results
    assert len(keyed) <= 2 and cache.writes == 1
    assert result.config.full_load_rho is not None
    [entry] = cache.root.glob("*/*.json")
    assert entry.name == f"{config_key(result.config)}.json"
    keyed.clear()
    spec.run(parallel=False, cache=cache)
    assert len(keyed) <= 2 and cache.hits == 1

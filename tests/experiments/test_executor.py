"""Tests for the warm-pool SweepExecutor."""

import os
import re
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    ResultCache,
    SimulationConfig,
    SweepExecutor,
    builtin_spec,
    executor as executor_module,
    parallel_sweep,
    runner,
)
from repro.experiments.runner import auto_chunksize


def small(**kwargs):
    defaults = dict(
        policy="random", workload="poisson_exp", load=0.7,
        n_servers=2, n_requests=300, seed=9,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# chunksize
# ----------------------------------------------------------------------

def test_auto_chunksize_floor_is_one():
    assert auto_chunksize(1, max_workers=8) == 1
    assert auto_chunksize(0, max_workers=8) == 1


def test_auto_chunksize_gives_each_worker_four_chunks():
    assert auto_chunksize(320, max_workers=10) == 8
    assert auto_chunksize(33, max_workers=4) == 2


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------

def test_executor_matches_parallel_sweep():
    configs = [small(seed=s) for s in range(4)]
    expected = parallel_sweep(configs, parallel=False)
    with SweepExecutor(max_workers=2) as executor:
        got = executor.sweep(configs)
    assert [(r.config, r.digest()) for r in got] == [
        (r.config, r.digest()) for r in expected
    ]


def test_pool_stays_warm_across_sweeps():
    configs = [small(seed=s) for s in range(3)]
    with SweepExecutor(max_workers=2) as executor:
        assert executor._pool is None  # lazy: no pool until the first sweep
        first = executor.sweep(configs)
        assert executor._pool is not None
        pool = executor._pool
        second = executor.sweep(configs)
        assert executor._pool is pool  # same processes, no respawn
    assert [(r.config, r.digest()) for r in second] == [
        (r.config, r.digest()) for r in first
    ]
    assert executor.stats.sweeps == 2
    assert executor.stats.configs_run == 6


def test_single_config_runs_inline():
    with SweepExecutor() as executor:
        [result] = executor.sweep([small()])
        assert executor._pool is None  # one config never pays pool spawn
    assert result.config.seed == 9


def test_progress_streams_in_order():
    configs = [small(seed=s) for s in range(5)]
    seen = []
    with SweepExecutor(max_workers=2) as executor:
        executor.sweep(
            configs, progress=lambda done, total, r: seen.append((done, total))
        )
    assert seen == [(i + 1, 5) for i in range(5)]


def test_executor_uses_cache(tmp_path):
    cache = ResultCache(tmp_path)
    configs = [small(seed=s) for s in range(3)]
    with SweepExecutor(max_workers=2, cache=cache) as executor:
        executor.sweep(configs)
        executor.sweep(configs)
        assert executor.stats.cache_hits == 3
        assert executor.stats.configs_run == 3
    assert cache.writes == 3


def test_engine_override_applies():
    with SweepExecutor(engine="calendar") as executor:
        [result] = executor.sweep([small()])
    assert result.config.engine == "calendar"


def test_executor_reusable_after_close():
    executor = SweepExecutor(max_workers=2)
    configs = [small(seed=s) for s in range(2)]
    executor.sweep(configs)
    executor.close()
    assert executor._pool is None
    results = executor.sweep(configs)  # re-spawns transparently
    executor.close()
    assert len(results) == 2


def test_worker_preseeding_snapshot():
    """The pool initializer receives the parent's calibration snapshot."""
    from repro.experiments import runner
    from repro.experiments.executor import _seed_worker

    before = dict(runner._CALIBRATION_CACHE)
    try:
        _seed_worker({("probe",): 0.5})
        assert runner._CALIBRATION_CACHE[("probe",)] == 0.5
    finally:
        runner._CALIBRATION_CACHE.clear()
        runner._CALIBRATION_CACHE.update(before)


# ----------------------------------------------------------------------
# a dead pool worker
# ----------------------------------------------------------------------

_REAL_RUN = runner.run_simulation
#: fields of the config a pool worker dies on (empty: none)
_LETHAL: dict = {}


def _run_or_die(config):
    """``run_simulation``, except that the process exits on the config
    whose fields match ``_LETHAL``."""
    if _LETHAL and all(getattr(config, k) == v for k, v in _LETHAL.items()):
        os._exit(1)
    return _REAL_RUN(config)


@pytest.fixture
def worker_dies_on(monkeypatch):
    """``worker_dies_on(**fields)`` arms every pool forked after it to
    exit on the matching config; ``monkeypatch.undo()`` disarms it."""

    def arm(**fields):
        monkeypatch.setattr(f"{__name__}._LETHAL", fields)
        monkeypatch.setattr(runner, "run_simulation", _run_or_die)
        monkeypatch.setattr(executor_module, "run_simulation", _run_or_die)

    return arm


def _first_lost(error: BrokenProcessPool) -> int:
    return int(re.search(r"the first config (\d+) ", str(error)).group(1))


def test_a_dead_worker_names_its_config_and_the_next_sweep_respawns(
    tmp_path, monkeypatch, worker_dies_on
):
    configs = [small(seed=s, label=f"cell{s}") for s in range(8)]
    expected = parallel_sweep(configs, parallel=False)
    cache = ResultCache(tmp_path)
    worker_dies_on(seed=5)
    with SweepExecutor(max_workers=2, cache=cache) as executor:
        with pytest.raises(BrokenProcessPool, match="a pool worker died") as info:
            executor.sweep(configs)
        lost = _first_lost(info.value)
        assert lost <= 5
        assert f"config {lost} ('cell{lost}', seed {lost})" in str(info.value)
        assert len(_entries(cache)) == lost  # every result that arrived was kept
        assert executor._pool is None  # the broken pool is gone
        monkeypatch.undo()
        results = executor.sweep(configs)
        assert executor._pool is not None
    assert cache.hits == lost
    assert [(r.config, r.digest()) for r in results] == [
        (r.config, r.digest()) for r in expected
    ]


# ----------------------------------------------------------------------
# an interrupted campaign resumes
# ----------------------------------------------------------------------

def _composed():
    return builtin_spec("composed", quick=True, n_requests=200)


def _entries(cache: ResultCache) -> list[str]:
    return sorted(path.name for path in cache.root.glob("*/*.json"))


@pytest.fixture(scope="module")
def clean_composed(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("clean"))
    return _composed().run(parallel=False, cache=cache), _entries(cache)


def _assert_resumes(root, clean_composed) -> None:
    clean, clean_entries = clean_composed
    filled = len(_entries(ResultCache(root)))
    cache = ResultCache(root)
    report = _composed().run(max_workers=2, cache=cache)
    assert report.render() == clean.render()
    assert [(r.config, r.digest()) for r in report.results] == [
        (r.config, r.digest()) for r in clean.results
    ]
    assert (cache.hits, cache.misses) == (filled, len(clean.results) - filled)
    assert _entries(cache) == clean_entries


def test_a_campaign_resumes_against_a_half_filled_cache(tmp_path, clean_composed):
    configs = [cell.config for cell in _composed().expand()]
    parallel_sweep(configs[::2], parallel=False, cache=ResultCache(tmp_path))
    assert len(_entries(ResultCache(tmp_path))) == len(configs) // 2
    _assert_resumes(tmp_path, clean_composed)


def test_a_campaign_resumes_after_a_dead_worker(
    tmp_path, monkeypatch, worker_dies_on, clean_composed
):
    configs = [cell.config for cell in _composed().expand()]
    worker_dies_on(label=configs[20].label)
    with pytest.raises(BrokenProcessPool) as info:
        _composed().run(max_workers=2, cache=ResultCache(tmp_path))
    assert len(_entries(ResultCache(tmp_path))) == _first_lost(info.value) <= 20
    monkeypatch.undo()
    _assert_resumes(tmp_path, clean_composed)

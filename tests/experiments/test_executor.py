"""Tests for the warm-pool SweepExecutor."""

import pytest

from repro.experiments import (
    ResultCache,
    SimulationConfig,
    SweepExecutor,
    parallel_sweep,
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
        assert not executor.warm  # lazy: no pool until the first sweep
        first = executor.sweep(configs)
        assert executor.warm
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
        assert not executor.warm  # one config never pays pool spawn
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
    assert not executor.warm
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

"""The one sweep loop, on a warm, reusable worker pool.

``parallel_sweep`` is a one-shot executor: it opens a
:class:`SweepExecutor`, runs one sweep, and closes it — fine for one
sweep, wasteful for a driver that runs many (``make figures``,
replication studies, parameter searches): every call pays worker spawn
+ module import.

:class:`SweepExecutor` keeps one pool alive across sweeps:

- workers are spawned once and reused, with the parent's
  ``_CALIBRATION_CACHE`` snapshot pre-seeded into each worker by the
  pool initializer (so even ad-hoc prototype configs never re-bisect);
- chunksize is auto-tuned per sweep from the sweep size
  (:func:`~repro.experiments.runner.auto_chunksize`);
- results stream back in input order as chunks complete, with an
  optional per-config ``progress`` callback and per-sweep wall-time
  accounting (:meth:`SweepExecutor.stats`);
- an optional :class:`~repro.experiments.cache.ResultCache` short-cuts
  configs already simulated and persists fresh ones, exactly like
  ``parallel_sweep(cache=...)``.

Determinism is unaffected: each config carries its own seed, so results
are bit-identical whether they come from ``run_simulation``,
``parallel_sweep``, or any ``SweepExecutor``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

# config_key through its module: the cache and the sweep share one binding
from repro.experiments import cache as result_cache
from repro.experiments.cache import ResultCache
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    _CALIBRATION_CACHE,
    SimulationResult,
    auto_chunksize,
    prepare_configs,
    run_simulation,
)

__all__ = ["SweepExecutor", "SweepStats"]

#: progress callback signature: (configs_done, configs_total, result)
ProgressFn = Callable[[int, int, SimulationResult], None]


def _seed_worker(calibrations: dict) -> None:
    """Pool initializer: pre-load the worker's calibration cache."""
    _CALIBRATION_CACHE.update(calibrations)


@dataclass
class SweepStats:
    """Cumulative accounting across an executor's lifetime."""

    sweeps: int = 0
    configs_run: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0


class SweepExecutor:
    """A persistent process pool that runs config sweeps.

    Parameters
    ----------
    max_workers:
        Pool size (default: all cores, per ``ProcessPoolExecutor``).
    cache:
        Optional :class:`ResultCache` consulted before simulating and
        written back after; per-sweep ``cache=`` overrides this.
    engine:
        Optional execution-engine override applied to every config
        (``"heap"``/``"calendar"``/``"fast"``).

    Use as a context manager, or call :meth:`close` when done. The pool
    is created lazily on the first sweep, so constructing an executor
    "just in case" costs nothing.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        engine: Optional[str] = None,
    ):
        self.max_workers = max_workers
        self.cache = cache
        self.engine = engine
        self.stats = SweepStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._seeded_calibrations = 0

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Snapshot the parent's calibrations into every worker. The
            # pool outlives this sweep, so later-discovered calibrations
            # reach workers via prepared configs (full_load_rho set),
            # not via re-seeding.
            self._seeded_calibrations = len(_CALIBRATION_CACHE)
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_seed_worker,
                initargs=(dict(_CALIBRATION_CACHE),),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down; the executor can be reused (re-spawns)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # sweeping
    # ------------------------------------------------------------------
    def sweep(
        self,
        configs: Sequence[SimulationConfig],
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        parallel: bool = True,
        keys: Optional[Sequence[str]] = None,
    ) -> list[SimulationResult]:
        """Run ``configs`` on the warm pool; results in input order.

        ``progress(done, total, result)`` fires once per config as its
        result lands (cache hits first, then fresh results in order).
        ``parallel=False`` (or a single config left to simulate) runs
        in this process and never spawns the pool — bit-identical
        either way.

        ``keys``, when given, holds each config's ``config_key`` (a
        scenario passes the keys its ``expand`` computed): the cache
        lookup and the write of a fresh result use it. The sweep computes
        a key only for a config it replaced itself (the ``engine``
        override, or ``prepare_configs`` filling a prototype config's
        ``full_load_rho``), and for every config when ``keys`` is None.

        A pool worker that dies raises ``BrokenProcessPool`` naming the
        first config whose result never arrived; the broken pool is
        discarded, so the next sweep spawns a fresh one.
        """
        started = time.perf_counter()
        cache = cache if cache is not None else self.cache
        configs = given = list(configs)
        if self.engine is not None:
            configs = [
                c if c.engine == self.engine else c.with_updates(engine=self.engine)
                for c in configs
            ]
        # Canonicalize before the cache lookup so the cache key, the config
        # the worker runs, and the config stored inside the result are all
        # the same object-value (a prototype config with full_load_rho=None
        # would otherwise store under its resolved form and never hit).
        configs = prepare_configs(configs)
        total = len(configs)
        done = 0

        slots: list[Optional[SimulationResult]] = [None] * total
        todo_indices = list(range(total))
        if cache is not None:
            # a config replaced above is not the one its key was made for
            keys = [
                key if key is not None and config is original
                else result_cache.config_key(config)
                for key, config, original in zip(
                    keys or [None] * total, configs, given, strict=True
                )
            ]
            todo_indices = []
            for i, config in enumerate(configs):
                hit = cache.get(config, keys[i])
                if hit is not None:
                    slots[i] = hit
                    self.stats.cache_hits += 1
                    done += 1
                    if progress is not None:
                        progress(done, total, hit)
                else:
                    todo_indices.append(i)

        todo = [configs[i] for i in todo_indices]
        if todo:
            if not parallel or len(todo) == 1:
                fresh = map(run_simulation, todo)
            else:
                pool = self._ensure_pool()
                fresh = pool.map(
                    run_simulation,
                    todo,
                    chunksize=auto_chunksize(len(todo), self.max_workers),
                )
            # pool.map yields in order as chunks complete — stream each
            # result into its slot instead of waiting for the sweep.
            arrived = 0
            try:
                for i, result in zip(todo_indices, fresh):
                    slots[i] = result
                    if cache is not None:
                        cache.put(result, keys[i])
                    self.stats.configs_run += 1
                    self.stats.sim_seconds += result.wall_seconds
                    arrived += 1
                    done += 1
                    if progress is not None:
                        progress(done, total, result)
            except BrokenProcessPool as err:
                self.close()
                i = todo_indices[arrived]
                lost = configs[i]
                raise BrokenProcessPool(
                    f"a pool worker died: {len(todo) - arrived} of {len(todo)} "
                    f"configs got no result, the first config {i} "
                    f"({lost.label!r}, seed {lost.seed})"
                ) from err

        self.stats.sweeps += 1
        self.stats.wall_seconds += time.perf_counter() - started
        return slots  # type: ignore[return-value]  # every slot is filled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "warm" if self._pool is not None else "cold"
        return (
            f"<SweepExecutor {state} workers={self.max_workers} "
            f"sweeps={self.stats.sweeps} run={self.stats.configs_run} "
            f"hits={self.stats.cache_hits}>"
        )

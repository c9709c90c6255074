"""Persistent, content-addressed result cache for simulation sweeps.

Every figure/ablation bench re-simulates its whole config grid on every
invocation, even when only one point changed. This module memoizes
:class:`~repro.experiments.runner.SimulationResult`s on disk, keyed by
a stable hash of the full :class:`SimulationConfig` (which includes the
engine choice), the library version, and the archive schema version —
so any change that could alter numbers (config field, code release,
schema) is automatically a miss, and a cached sweep re-run costs, per
config, one JSON encode for its key, one file read and one JSON decode.
A caller that already holds a config's key passes it to
:meth:`ResultCache.get` and :meth:`ResultCache.put`: a scenario computes
each cell's key once, in ``expand``'s duplicate check, and the sweep
reads and writes under that key, so a warm or a cold run encodes each
config once.
The key's JSON is the config's shallow
:func:`~repro.experiments.config.field_values` walk, never a deep copy;
its ``default`` hook, :func:`~repro.experiments.config.json_default`,
makes a dataclass inside a params dict its own field walk and any other
iterable a list, the bytes ``dataclasses.asdict`` produced before it.

Layout: one JSON file per result under ``<root>/<hash[:2]>/<hash>.json``,
written in the exact :mod:`repro.experiments.io` archive format (a
one-record archive), so cached entries are greppable, diffable, and
loadable with :func:`~repro.experiments.io.load_results` directly.

Writes are atomic (temp file + ``os.replace``), so a cache shared by
concurrent sweep processes never yields torn reads; the worst case is
both processes simulating the same config and one overwrite winning.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.experiments.config import SimulationConfig, field_values, json_default
from repro.experiments.runner import SimulationResult

__all__ = ["ResultCache", "config_key", "default_cache_dir"]

#: environment variable overriding the default cache location
_CACHE_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Default on-disk cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``.

    Repo-local by default so a checkout's cache travels with it and
    ``rm -rf .repro-cache`` is an obvious, safe invalidation hammer.
    """
    env = os.environ.get(_CACHE_ENV)
    return Path(env) if env else Path(".repro-cache")


def config_key(config: SimulationConfig) -> str:
    """Stable content hash identifying a config's cached result.

    Covers every ``SimulationConfig`` field (so policy/workload params,
    seed, and the ``engine`` choice all key independently) plus the
    library version and the io schema version. Canonical JSON with
    sorted keys makes the hash independent of dict insertion order.
    """
    from repro import __version__
    from repro.experiments.io import _SCHEMA_VERSION

    payload = {
        "config": field_values(config),
        "library_version": __version__,
        "schema_version": _SCHEMA_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, default=json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk memo table from :class:`SimulationConfig` to its result.

    Use via ``parallel_sweep(configs, cache=ResultCache(dir))`` or a
    :class:`~repro.experiments.executor.SweepExecutor`; both consult
    the cache before simulating and write back every fresh result.

    ``hits``, ``misses`` and ``writes`` count over the cache object's
    lifetime, so drivers can report how much work a sweep skipped.
    """

    def __init__(self, root: Optional[str | Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, config: SimulationConfig, key: Optional[str] = None
    ) -> Optional[SimulationResult]:
        """The cached result for ``config``, or ``None`` on a miss.

        ``key`` is ``config_key(config)`` when the caller already has it.
        Missing, unreadable or stale entries (hash collision, interrupted
        write predating atomic replace, config drift, any file that is
        not a one-record archive of this config) count as misses; the
        next :meth:`put` overwrites them.
        """
        from repro.experiments.io import load_results

        path = self._path(key if key is not None else config_key(config))
        try:
            results = load_results(path)
        # a missing file is an OSError; load_results names every bad shape
        except (ValueError, OSError):
            self.misses += 1
            return None
        if len(results) != 1 or results[0].config != config:
            self.misses += 1
            return None
        self.hits += 1
        return results[0]

    def put(self, result: SimulationResult, key: Optional[str] = None) -> None:
        """Store ``result`` under its config's key (atomic overwrite);
        ``key`` is ``config_key(result.config)`` when the caller has it."""
        from repro.experiments.io import save_results

        path = self._path(key if key is not None else config_key(result.config))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        save_results([result], tmp)
        os.replace(tmp, path)
        self.writes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache root={str(self.root)!r} hits={self.hits} "
            f"misses={self.misses} writes={self.writes}>"
        )

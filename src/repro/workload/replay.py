"""Trace replay: timestamped arrival traces as first-class workloads.

The campaign grids so far drive clusters with synthetic stationary
processes (Poisson, MMPP). "Dispatching Odyssey" (PAPERS.md) shows
that exactly this family misses the structure of real cluster
workloads: short intense bursts change which policies degrade first.
This module closes that gap three ways:

- **a generator** — :func:`bursty_trace` (periodic on/off bursts: a
  short high-rate phase each cycle over a low-rate background), seeded
  from the named RNG substream the runner hands every workload, so
  traces are deterministic per (seed, params) cell;
- **a loader/exporter pair** — timestamped arrival records as CSV
  (``timestamp,service`` columns), with byte-exact round-trips: the
  absolute timestamps parsed from a file are kept in
  ``Trace.metadata["timestamps"]`` so re-export reproduces the input
  exactly instead of re-deriving instants from float gap sums. The
  loader refuses a row it cannot replay as a ``ValueError`` naming
  ``path:line``;
- **cache-key awareness** — :func:`replay_file_params` stamps a content
  digest into the ``workload_params`` of a ``replay_file`` cell, so the
  persistent result cache misses (instead of serving stale results)
  when the trace file's *content* changes under an unchanged path.

Like every workload, replay traces are rescaled by the runner to the
requested per-server load (the paper's demand-level knob): the *shape*
— burst positions, relative gap structure — is what replay preserves.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.workload.distributions import (
    Deterministic,
    Distribution,
    lognormal_from_moments,
)
from repro.workload.traces import Trace

__all__ = [
    "EPOCH_CUTOFF",
    "bursty_trace",
    "live_trace",
    "load_arrivals",
    "replay_file_params",
    "save_arrivals",
    "file_trace",
    "trace_digest",
]

#: CSV header of arrival records
_FIELDS = ("timestamp", "service")

#: Timestamps at/above this (in seconds) are treated as absolute
#: wall-clock epoch offsets rather than trace-relative instants.
#: Trace-relative traces run minutes-to-hours; ~11.6 days of relative
#: time is far beyond any replayable trace, while Unix epochs are ~1.7e9.
#: Live ``repro drive`` recordings carry epoch timestamps — they are
#: normalized to t=0 at save time, and the loader refuses them raw (the
#: first gap would otherwise be the epoch itself, and the runner's
#: mean-based load rescale would silently destroy the trace's shape).
EPOCH_CUTOFF = 1e6


def _classify_epochs(times: np.ndarray, source: str) -> bool:
    """True if ``times`` are epoch-based; raises on empty, non-finite or
    mixed-epoch input."""
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"{source}: no timestamps to classify (shape {times.shape})")
    first = float(times[0])
    last = float(times[-1])
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError(f"{source}: non-finite first or last timestamp ({first!r}, {last!r})")
    if first < EPOCH_CUTOFF <= last:
        raise ValueError(
            f"{source}: mixed-epoch timestamps (first={first!r} is "
            f"trace-relative but last={last!r} crosses the epoch cutoff "
            f"{EPOCH_CUTOFF:g}s) — the trace mixes normalized and "
            "wall-clock records and cannot be replayed"
        )
    return first >= EPOCH_CUTOFF


def _service_distribution(mean_service: float, service_cv: float) -> Distribution:
    if mean_service <= 0:
        raise ValueError(f"mean_service must be > 0, got {mean_service}")
    if service_cv < 0:
        raise ValueError(f"service_cv must be >= 0, got {service_cv}")
    if service_cv == 0:
        return Deterministic(mean_service)
    return lognormal_from_moments(mean_service, service_cv * mean_service)


def _gaps_from_times(times: np.ndarray) -> np.ndarray:
    gaps = np.empty_like(times)
    gaps[0] = times[0]
    np.subtract(times[1:], times[:-1], out=gaps[1:])
    return gaps


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def bursty_trace(
    rng: np.random.Generator,
    n: int,
    mean_service: float = 50e-3,
    service_cv: float = 1.0,
    burst_ratio: float = 20.0,
    burst_fraction: float = 0.1,
    cycle: float = 2.0,
    mean_interval: Optional[float] = None,
) -> Trace:
    """A bursty arrival trace: periodic on/off rate switching.

    Each ``cycle`` seconds, a burst phase of length
    ``burst_fraction * cycle`` runs at ``burst_ratio`` times the calm
    rate; rates are normalized so the long-run mean interarrival is
    ``mean_interval`` (default ``mean_service``). Unlike the MMPP
    workload's exponential sojourns this is *periodic* burst structure
    — the kind replayed cluster traces exhibit at request-batch and
    cron-job timescales.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burst_ratio <= 1.0:
        raise ValueError(f"burst_ratio must be > 1, got {burst_ratio}")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError(f"burst_fraction must be in (0, 1), got {burst_fraction}")
    if cycle <= 0:
        raise ValueError(f"cycle must be > 0, got {cycle}")
    base_interval = mean_interval if mean_interval is not None else mean_service
    if base_interval <= 0:
        raise ValueError(f"mean_interval must be > 0, got {base_interval}")
    base_rate = 1.0 / base_interval
    # mean rate = f*R*r_low + (1-f)*r_low == base_rate
    r_low = base_rate / (burst_fraction * burst_ratio + 1.0 - burst_fraction)
    r_high = burst_ratio * r_low

    chunks: list[np.ndarray] = []
    total = 0
    start = 0.0
    phases = ((burst_fraction * cycle, r_high), ((1.0 - burst_fraction) * cycle, r_low))
    while total < n:
        for duration, rate in phases:
            # Draw a gap block with slack, keep arrivals inside the phase.
            expected = rate * duration
            block = max(16, int(expected * 1.5) + 8)
            arrivals = start + np.cumsum(rng.exponential(1.0 / rate, block))
            while arrivals[-1] < start + duration:  # pragma: no cover - rare
                extra = start + np.cumsum(
                    rng.exponential(1.0 / rate, block)
                ) + (arrivals[-1] - start)
                arrivals = np.concatenate([arrivals, extra])
            kept = arrivals[arrivals < start + duration]
            if kept.size:
                chunks.append(kept)
                total += kept.size
            start += duration

    times = np.concatenate(chunks)[:n]
    service = np.asarray(
        _service_distribution(mean_service, service_cv).sample(rng, n),
        dtype=np.float64,
    )
    return Trace(
        name=f"Replay bursty x{burst_ratio:g}",
        interarrival=_gaps_from_times(times),
        service=service,
        metadata={
            "replay": "bursty",
            "burst_ratio": float(burst_ratio),
            "burst_fraction": float(burst_fraction),
            "cycle": float(cycle),
        },
    )


# ----------------------------------------------------------------------
# file I/O: timestamped arrival records
# ----------------------------------------------------------------------

def _csv_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".csv":
        raise ValueError(
            f"{path}: unsupported arrival-trace suffix {path.suffix!r} (expected .csv)"
        )
    return path


def load_arrivals(path: str | Path) -> Trace:
    """Load a ``timestamp,service`` CSV into a :class:`Trace`.

    The header row is required (it documents the unit contract: both
    columns are seconds). Every value must be a finite number, every
    service time positive, and the timestamps non-decreasing from at
    least 0 and below :data:`EPOCH_CUTOFF`; anything else is a
    ``ValueError`` naming ``path:line``. Parsed absolute timestamps are
    retained in ``metadata["timestamps"]`` so :func:`save_arrivals`
    re-exports the file byte-identically.
    """
    path = _csv_path(path)
    timestamps: list[float] = []
    services: list[float] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != _FIELDS:
                raise ValueError(
                    f"{path}:1: expected header {','.join(_FIELDS)!r}, got {header!r}"
                )
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != 2:
                    raise ValueError(f"{where}: expected 2 columns, got {len(row)}")
                try:
                    timestamp, service = float(row[0]), float(row[1])
                except ValueError:
                    raise ValueError(f"{where}: not a number in {row!r}") from None
                if not (math.isfinite(timestamp) and math.isfinite(service)):
                    raise ValueError(f"{where}: non-finite value in {row!r}")
                if service <= 0:
                    raise ValueError(f"{where}: non-positive service time {service!r}")
                previous = timestamps[-1] if timestamps else 0.0
                if timestamp < previous:
                    raise ValueError(
                        f"{where}: timestamps must be non-negative and non-decreasing "
                        f"({timestamp!r} after {previous!r})"
                    )
                if timestamp >= EPOCH_CUTOFF:
                    raise ValueError(
                        f"{where}: mixed-epoch timestamps ({timestamp!r} crosses the "
                        f"epoch cutoff {EPOCH_CUTOFF:g}s after trace-relative records) "
                        "— the trace cannot be replayed"
                        if timestamps else
                        f"{where}: non-normalized epoch timestamps (first arrival "
                        f"{timestamp!r} >= {EPOCH_CUTOFF:g}s) — re-export the trace "
                        "with save_arrivals(), which normalizes wall-clock epochs "
                        "to t=0 (or use repro.workload.replay.live_trace for "
                        "in-memory live recordings)"
                    )
                timestamps.append(timestamp)
                services.append(service)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}:{reader.line_num + 1}: unreadable row ({exc})") from None
    if not timestamps:
        raise ValueError(f"{path}:2: no arrival records")
    times = np.asarray(timestamps, dtype=np.float64)
    return Trace(
        name=f"Replay {path.name}",
        interarrival=_gaps_from_times(times),
        service=np.asarray(services, dtype=np.float64),
        metadata={"source": str(path), "timestamps": times},
    )


def _export_timestamps(trace: Trace) -> np.ndarray:
    stored = trace.metadata.get("timestamps")
    if stored is not None:
        stored = np.asarray(stored, dtype=np.float64)
        if stored.shape[0] != len(trace):
            stored = None
    times = stored if stored is not None else np.cumsum(trace.interarrival)
    if times.size and _classify_epochs(times, trace.name):
        # Live recordings carry wall-clock epochs: normalize to t=0 at
        # save time. Loaded traces always start below the cutoff (the
        # loader enforces it), so round-trips stay byte-exact — this
        # shift only ever applies to freshly recorded traces.
        times = times - times[0]
    return times


def save_arrivals(trace: Trace, path: str | Path) -> None:
    """Export a trace as a ``timestamp,service`` CSV.

    Floats are written in ``repr`` (shortest round-trip) form, so
    ``load_arrivals`` of the file reproduces every value bit-for-bit.
    """
    path = _csv_path(path)
    times = _export_timestamps(trace)
    lines = [",".join(_FIELDS)]
    lines.extend(
        f"{t!r},{s!r}" for t, s in zip(times.tolist(), trace.service.tolist())
    )
    path.write_text("\n".join(lines) + "\n")


def _finite_column(values: Any, name: str, source: str) -> np.ndarray:
    """``values`` as a 1-D float64 array of finite numbers; anything else
    is a ``ValueError`` naming ``source`` and the first bad index."""
    try:
        column = np.asarray(values, dtype=object)
    except ValueError:
        raise ValueError(f"{source}: {name} is not a 1-D sequence of numbers") from None
    if column.ndim != 1:
        raise ValueError(f"{source}: {name} must be a 1-D sequence, got shape {column.shape}")
    out = np.empty(column.size)
    for index, value in enumerate(column.tolist()):
        try:
            out[index] = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{source}: {name}[{index}] is not a number: {value!r}") from None
        if not math.isfinite(out[index]):
            raise ValueError(f"{source}: {name}[{index}] is not finite: {value!r}")
    return out


def live_trace(
    timestamps, services, source: str = "live-recording"
) -> Trace:
    """Build an in-memory :class:`Trace` from a live (wall-clock) run.

    ``timestamps`` may be epoch-based (``time.time()`` instants, as
    recorded by ``repro drive --record-trace``): the interarrival gaps
    are derived from *normalized* times so the trace is immediately
    replayable, while the raw instants are kept in
    ``metadata["timestamps"]`` — :func:`save_arrivals` normalizes them
    to t=0 on export, after which the file round-trips byte-exactly
    through :func:`load_arrivals`. As that loader, it refuses anything
    it cannot replay — a value that is not a finite number, a service
    time <= 0, a timestamp going backwards — as a ``ValueError`` that
    starts ``source:`` and names the index.
    """
    times = _finite_column(timestamps, "timestamps", source)
    svc = _finite_column(services, "services", source)
    if times.size == 0 or times.shape != svc.shape:
        raise ValueError(
            f"{source}: timestamps and services must be equal-length "
            "non-empty 1-D arrays"
        )
    backwards = np.flatnonzero(np.diff(times) < 0)
    if backwards.size:
        raise ValueError(
            f"{source}: timestamps must be non-decreasing "
            f"(timestamps[{backwards[0] + 1}] goes back)"
        )
    if times[0] < 0:
        raise ValueError(f"{source}: negative first timestamp")
    non_positive = np.flatnonzero(svc <= 0)
    if non_positive.size:
        index = non_positive[0]
        raise ValueError(f"{source}: services[{index}] must be > 0, got {float(svc[index])!r}")
    normalized = times - times[0] if _classify_epochs(times, source) else times
    return Trace(
        name=f"Replay {source}",
        interarrival=_gaps_from_times(normalized),
        service=svc,
        metadata={"source": str(source), "timestamps": times},
    )


# ----------------------------------------------------------------------
# replay_file cache-key support
# ----------------------------------------------------------------------

def trace_digest(path: str | Path) -> str:
    """Short content digest of a trace file (hex, 16 chars)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def replay_file_params(path: str | Path) -> dict[str, str]:
    """``workload_params`` for a ``replay_file`` cell, content-addressed.

    The digest participates in the simulation cache key (workload
    params are hashed into it), so editing the trace file invalidates
    cached results even though the path string is unchanged.
    """
    return {"path": str(path), "digest": trace_digest(path)}


def file_trace(path: str | Path, digest: Optional[str] = None) -> Trace:
    """Load a replay trace file, optionally pinning its content digest.

    A mismatching ``digest`` means the file changed since the caller
    captured :func:`replay_file_params` — fail loudly rather than
    replaying a different workload under the old cache key.
    """
    if digest is not None:
        actual = trace_digest(path)
        if actual != digest:
            raise ValueError(
                f"{path}: content digest {actual} does not match the "
                f"pinned digest {digest} (trace file changed on disk; "
                "re-run replay_file_params to re-pin it)"
            )
    return load_arrivals(path)

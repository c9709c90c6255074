"""Persist and reload experiment results (JSON) and telemetry exports.

Sweeps are expensive; archiving their results lets analyses, reports,
and regressions run without re-simulating. The format is plain JSON —
one document with a schema version, the library version, and a list of
``SimulationResult`` records (configs nested) — so archives stay
greppable and diffable.

Telemetry runs additionally export **spans** (one JSON object per line,
after a schema header — JSONL streams into jq/pandas/duckdb without
loading the whole file), **series** (plain CSV, one column per sampled
series), and **accounting** (one JSON document). All three carry
``TELEMETRY_SCHEMA_VERSION`` so future layout changes are detectable.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.experiments.config import SimulationConfig, field_values, json_default
from repro.experiments.runner import SimulationResult
from repro.telemetry.spans import ATTEMPT_FIELDS, SPAN_FIELDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryReport

__all__ = [
    "save_results",
    "load_results",
    "save_attempts_jsonl",
    "load_attempts_jsonl",
    "save_spans_jsonl",
    "load_spans_jsonl",
    "save_series_csv",
    "load_series_csv",
    "save_telemetry",
    "validate_telemetry_dir",
]

_SCHEMA_VERSION = 1

#: schema version stamped on every telemetry export artifact.
#: v2 added the per-span ``rejects`` count (admission rejections the
#: request absorbed); v1 exports stay loadable — the field defaults
#: to 0 on load.
TELEMETRY_SCHEMA_VERSION = 2

#: span fields introduced by schema v2 (optional when loading v1 files)
_SPAN_FIELDS_ADDED_V2 = frozenset({"rejects"})


def save_results(results: Sequence[SimulationResult], path: str | Path) -> None:
    """Write results (and their configs) to ``path`` as JSON.

    Each record is the result's :func:`field_values`; the encoder's
    :func:`json_default` walks the nested config the same way.
    """
    from repro import __version__

    document = {
        "schema_version": _SCHEMA_VERSION,
        "library_version": __version__,
        "results": [field_values(result) for result in results],
    }
    Path(path).write_text(
        json.dumps(document, indent=1, sort_keys=True, default=json_default)
    )


def load_results(path: str | Path) -> list[SimulationResult]:
    """Reload results written by :func:`save_results`.

    JSON that is not such an archive raises ``ValueError`` naming the
    file and the offending part (a top level, ``results`` list, record
    or config of the wrong shape, or a record that builds no result),
    so :class:`~repro.experiments.cache.ResultCache` counts it a miss.
    """
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict):
        raise ValueError(
            f"{path}: top level must be an object, got {type(document).__name__} "
            "(is this a repro results archive?)"
        )
    version = document.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int):
        raise ValueError(
            f"{path}: missing or malformed schema_version {version!r} "
            f"(expected an integer; is this a repro results archive?)"
        )
    if version > _SCHEMA_VERSION:
        raise ValueError(
            f"{path}: results schema {version} is newer than this library "
            f"supports ({_SCHEMA_VERSION}); upgrade repro to read this archive"
        )
    if version < _SCHEMA_VERSION:
        raise ValueError(
            f"{path}: results schema {version} predates the supported "
            f"schema {_SCHEMA_VERSION}; re-run the sweep to regenerate it"
        )
    records = document.get("results")
    if not isinstance(records, list):
        raise ValueError(
            f"{path}: results must be a list of records, got {type(records).__name__}"
        )
    return [_load_record(f"{path}: results[{i}]", r) for i, r in enumerate(records)]


def _load_record(where: str, record: object) -> SimulationResult:
    """One archive record back into a result; ``ValueError`` naming
    ``where`` if it does not build one."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object, got {type(record).__name__}")
    config_dict = record.pop("config", None)
    if not isinstance(config_dict, dict):
        raise ValueError(
            f"{where}.config must be an object, got {type(config_dict).__name__}"
        )
    try:
        if config_dict.get("server_speeds") is not None:
            config_dict["server_speeds"] = tuple(config_dict["server_speeds"])
        config = SimulationConfig(**config_dict)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}.config: {err}") from None
    try:
        record["server_counts"] = tuple(record.get("server_counts", ()))
        return SimulationResult(config=config, **record)
    except TypeError as err:
        raise ValueError(f"{where}: {err}") from None


# ----------------------------------------------------------------------
# telemetry exports (spans JSONL, series CSV, accounting JSON)
# ----------------------------------------------------------------------

_INT_SPAN_FIELDS = frozenset({"index", "client_id", "server_id", "retries", "rejects"})


def _nan_to_null(record: dict) -> dict:
    """Non-finite floats become JSON ``null`` (strict-JSON friendly)."""
    return {
        key: (None if isinstance(value, float) and not math.isfinite(value) else value)
        for key, value in record.items()
    }


def _null_to_nan(record: dict) -> dict:
    return {
        key: (math.nan if value is None and key not in _INT_SPAN_FIELDS else value)
        for key, value in record.items()
    }


def save_spans_jsonl(spans: Sequence, path: str | Path) -> None:
    """Write request spans as JSONL: a schema header line, then one
    span object per line (``nan`` timestamps serialize as ``null``)."""
    header = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "kind": "repro.telemetry.spans",
        "fields": list(SPAN_FIELDS),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(_nan_to_null(span.to_dict()), sort_keys=True) for span in spans
    )
    Path(path).write_text("\n".join(lines) + "\n")


def load_spans_jsonl(path: str | Path) -> list[dict]:
    """Reload (and validate) a span export written by
    :func:`save_spans_jsonl`; returns one dict per span."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty spans file (expected a schema header line)")
    header = json.loads(lines[0])
    version = header.get("schema_version")
    if header.get("kind") != "repro.telemetry.spans" or not isinstance(version, int):
        raise ValueError(
            f"{path}: malformed telemetry spans header {lines[0]!r} "
            "(is this a repro spans export?)"
        )
    if version > TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: spans schema {version} is newer than this library "
            f"supports ({TELEMETRY_SCHEMA_VERSION}); upgrade repro to read it"
        )
    required = set(SPAN_FIELDS)
    if version < 2:
        # v1 exports predate the rejects field; default it on load so
        # downstream consumers see the full v2 shape.
        required = required - _SPAN_FIELDS_ADDED_V2
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = json.loads(line)
        missing = required - set(record)
        if missing:
            raise ValueError(
                f"{path}:{lineno}: span record missing field(s) {sorted(missing)}"
            )
        if version < 2:
            record.setdefault("rejects", 0)
        out.append(_null_to_nan(record))
    return out


def save_attempts_jsonl(attempts: Sequence, path: str | Path) -> None:
    """Write per-attempt dispatch records as JSONL (same layout contract
    as :func:`save_spans_jsonl`: schema header, then one record/line)."""
    header = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "kind": "repro.telemetry.attempts",
        "fields": list(ATTEMPT_FIELDS),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(_nan_to_null(attempt.to_dict()), sort_keys=True)
        for attempt in attempts
    )
    Path(path).write_text("\n".join(lines) + "\n")


def load_attempts_jsonl(path: str | Path) -> list[dict]:
    """Reload (and validate) an attempt export written by
    :func:`save_attempts_jsonl`; returns one dict per attempt."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty attempts file (expected a schema header line)")
    header = json.loads(lines[0])
    version = header.get("schema_version")
    if header.get("kind") != "repro.telemetry.attempts" or not isinstance(version, int):
        raise ValueError(
            f"{path}: malformed telemetry attempts header {lines[0]!r} "
            "(is this a repro attempts export?)"
        )
    if version > TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: attempts schema {version} is newer than this library "
            f"supports ({TELEMETRY_SCHEMA_VERSION}); upgrade repro to read it"
        )
    required = set(ATTEMPT_FIELDS)
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = json.loads(line)
        missing = required - set(record)
        if missing:
            raise ValueError(
                f"{path}:{lineno}: attempt record missing field(s) {sorted(missing)}"
            )
        out.append(_null_to_nan(record))
    return out


def save_series_csv(series: dict[str, np.ndarray], path: str | Path) -> None:
    """Write sampled time series as CSV (``time`` first, then each
    series as a column; a ``# repro.telemetry.series v<N>`` comment line
    carries the schema version)."""
    if "time" not in series:
        raise ValueError("series must contain a 'time' grid")
    names = ["time"] + sorted(name for name in series if name != "time")
    n = len(series["time"])
    for name in names:
        if len(series[name]) != n:
            raise ValueError(f"series {name!r} length {len(series[name])} != {n}")
    with open(path, "w", newline="") as fh:
        fh.write(f"# repro.telemetry.series v{TELEMETRY_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow([repr(float(series[name][i])) for name in names])


def load_series_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Reload a series export written by :func:`save_series_csv`."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# repro.telemetry.series v"):
            raise ValueError(f"{path}: missing telemetry series header comment")
        version = int(first.rsplit("v", 1)[1])
        if version > TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: series schema {version} is newer than this library "
                f"supports ({TELEMETRY_SCHEMA_VERSION}); upgrade repro to read it"
            )
        reader = csv.reader(fh)
        names = next(reader)
        columns: list[list[float]] = [[] for _ in names]
        for row in reader:
            for column, cell in zip(columns, row):
                column.append(float(cell))
    return {name: np.asarray(column) for name, column in zip(names, columns)}


def save_telemetry(report: "TelemetryReport", directory: str | Path) -> dict[str, Path]:
    """Export a telemetry report: ``spans.jsonl``, ``series.csv``, and
    ``accounting.json`` under ``directory`` (created if needed).

    Returns the written paths keyed by artifact name.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "spans": root / "spans.jsonl",
        "series": root / "series.csv",
        "accounting": root / "accounting.json",
    }
    save_spans_jsonl(report.spans, paths["spans"])
    save_series_csv(report.series, paths["series"])
    if report.attempts:
        # Only reliability-hardened runs produce attempt records; the
        # file is absent (not empty) for everything else, so existing
        # export consumers see an unchanged directory layout.
        paths["attempts"] = root / "attempts.jsonl"
        save_attempts_jsonl(report.attempts, paths["attempts"])
    paths["accounting"].write_text(
        json.dumps(
            {
                "schema_version": TELEMETRY_SCHEMA_VERSION,
                "kind": "repro.telemetry.accounting",
                "sample_interval": report.sample_interval,
                "spans_dropped": report.spans_dropped,
                "accounting": report.accounting,
            },
            indent=1,
            sort_keys=True,
        )
    )
    return paths


def validate_telemetry_dir(directory: str | Path) -> dict[str, int]:
    """Re-read a telemetry export and check it against the schema.

    Returns ``{"spans": n, "series": n_samples, "series_columns": k}``
    (plus ``"attempts": n`` when an ``attempts.jsonl`` is present —
    reliability-hardened runs only); raises ``ValueError``/``OSError``
    on any malformed artifact. Used by ``make telemetry-smoke`` and
    ``make resilience-smoke`` to gate exports in CI.
    """
    root = Path(directory)
    spans = load_spans_jsonl(root / "spans.jsonl")
    series = load_series_csv(root / "series.csv")
    accounting = json.loads((root / "accounting.json").read_text())
    if accounting.get("kind") != "repro.telemetry.accounting":
        raise ValueError(f"{root}/accounting.json: wrong or missing kind")
    if not isinstance(accounting.get("schema_version"), int):
        raise ValueError(f"{root}/accounting.json: missing schema_version")
    if "time" not in series:
        raise ValueError(f"{root}/series.csv: missing 'time' column")
    out = {
        "spans": len(spans),
        "series": len(series["time"]),
        "series_columns": len(series) - 1,
    }
    attempts_path = root / "attempts.jsonl"
    if attempts_path.exists():
        out["attempts"] = len(load_attempts_jsonl(attempts_path))
    return out

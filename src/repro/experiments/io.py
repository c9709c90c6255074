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
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import locate
from repro.experiments.config import SimulationConfig, field_values, json_default
from repro.experiments.runner import SimulationResult

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

#: span fields introduced by schema v2, with the value a v1 file loads them as
_SPAN_FIELDS_ADDED_V2 = {"rejects": 0}


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

#: the JSON values a record field of each annotation loads from (a bool
#: is no int here, though Python's ``isinstance`` says it is)
_JSON_TYPES = {"int": int, "float": (int, float, type(None)), "str": str, "bool": bool}


def _wrong_type(value: object, annotation: str) -> bool:
    if isinstance(value, bool):
        return annotation != "bool"
    return not isinstance(value, _JSON_TYPES[annotation])


def _nan_to_null(record: dict) -> dict:
    """Non-finite floats become JSON ``null`` (strict-JSON friendly)."""
    return {
        key: (None if isinstance(value, float) and not math.isfinite(value) else value)
        for key, value in record.items()
    }


def _null_to_nan(record: dict) -> dict:
    """``null`` back to ``nan`` (of the schema's fields, only a float
    field may hold ``null``)."""
    return {key: (math.nan if value is None else value) for key, value in record.items()}


def save_spans_jsonl(spans: Sequence, path: str | Path) -> None:
    """Write request spans as JSONL: a schema header line, then one
    span object per line (``nan`` timestamps serialize as ``null``)."""
    _save_jsonl(spans, path, "spans", locate("repro.telemetry.spans:RequestSpan"))


def load_spans_jsonl(path: str | Path) -> list[dict]:
    """Reload (and validate) a span export written by
    :func:`save_spans_jsonl`; returns one dict per span."""
    span = locate("repro.telemetry.spans:RequestSpan")
    return _load_jsonl(path, "spans", span, _SPAN_FIELDS_ADDED_V2)


def save_attempts_jsonl(attempts: Sequence, path: str | Path) -> None:
    """Write per-attempt dispatch records as JSONL (same layout contract
    as :func:`save_spans_jsonl`: schema header, then one record/line)."""
    _save_jsonl(attempts, path, "attempts", locate("repro.telemetry.spans:AttemptRecord"))


def load_attempts_jsonl(path: str | Path) -> list[dict]:
    """Reload (and validate) an attempt export written by
    :func:`save_attempts_jsonl`; returns one dict per attempt."""
    return _load_jsonl(path, "attempts", locate("repro.telemetry.spans:AttemptRecord"), {})


def _save_jsonl(records: Sequence, path: str | Path, kind: str, record_type) -> None:
    header = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "kind": f"repro.telemetry.{kind}",
        "fields": [f.name for f in fields(record_type)],
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(_nan_to_null(record.to_dict()), sort_keys=True) for record in records
    )
    Path(path).write_text("\n".join(lines) + "\n")


def _load_jsonl(path: str | Path, kind: str, record_type, added_v2: dict) -> list[dict]:
    """The records of a telemetry JSONL export of ``kind``, one
    ``record_type`` each; a record of a v1 file gets the ``added_v2``
    fields it lacks. A file that is no such export, or a field whose
    value does not fit its ``record_type`` annotation, raises
    ``ValueError`` naming ``path:line``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty {kind} file (expected a schema header line)")
    version = _header_version(path, _json_line(path, 1, lines[0]), kind)
    annotations = {f.name: f.type for f in fields(record_type)}
    required = set(annotations) - (set(added_v2) if version < 2 else set())
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _json_line(path, lineno, line)
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}:{lineno}: record must be an object, got {type(record).__name__}"
            )
        missing = required - set(record)
        if missing:
            raise ValueError(f"{path}:{lineno}: record missing field(s) {sorted(missing)}")
        if version < 2:
            record = {**added_v2, **record}
        for name, annotation in annotations.items():
            if _wrong_type(record[name], annotation):
                raise ValueError(
                    f"{path}:{lineno}: field {name!r} must be {annotation}, "
                    f"got {record[name]!r}"
                )
        out.append(_null_to_nan(record))
    return out


def _json_line(path: str | Path, lineno: int, text: str) -> object:
    """``text`` parsed as strict JSON (the writers turn non-finite
    numbers into ``null``, so ``NaN``/``Infinity`` never round-trip);
    ``ValueError`` naming ``path:lineno`` otherwise."""
    try:
        return json.loads(text, parse_constant=_no_constant)
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: not JSON ({err})") from None


def _no_constant(name: str) -> None:
    raise ValueError(f"{name} is not strict JSON")


def _header_version(path: str | Path, header: object, kind: str) -> int:
    """The schema version of a telemetry header object; ``ValueError``
    naming ``path:1`` unless it heads a ``kind`` export this library reads."""
    if not isinstance(header, dict) or header.get("kind") != f"repro.telemetry.{kind}":
        raise ValueError(
            f"{path}:1: malformed telemetry {kind} header {header!r} "
            f"(is this a repro {kind} export?)"
        )
    return _schema_version(path, kind, header.get("schema_version"))


def _schema_version(path: str | Path, kind: str, version: object) -> int:
    if isinstance(version, bool) or not isinstance(version, int):
        raise ValueError(f"{path}:1: malformed {kind} schema version {version!r}")
    if version > TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"{path}:1: {kind} schema {version} is newer than this library "
            f"supports ({TELEMETRY_SCHEMA_VERSION}); upgrade repro to read it"
        )
    return version


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
    """Reload a series export written by :func:`save_series_csv`. A
    file that is no such export — no header comment or column row, no
    ``time`` column, a repeated column, a row of the wrong width, a cell
    that is no number — raises ``ValueError`` naming ``path:line``."""
    prefix = "# repro.telemetry.series v"
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(prefix):
            raise ValueError(f"{path}:1: missing telemetry series header comment")
        version = first[len(prefix):].strip()
        _schema_version(path, "series", int(version) if version.isdecimal() else version)
        try:
            rows = list(csv.reader(fh))
        except csv.Error as err:
            raise ValueError(f"{path}: malformed CSV ({err})") from None
    if not rows:
        raise ValueError(f"{path}:2: missing the column header row")
    names = rows[0]
    if "time" not in names or len(set(names)) != len(names):
        raise ValueError(f"{path}:2: column header {names!r} needs one 'time' and no repeats")
    columns: list[list[float]] = [[] for _ in names]
    for lineno, row in enumerate(rows[1:], start=3):
        if len(row) != len(names):
            raise ValueError(f"{path}:{lineno}: {len(row)} cells for {len(names)} columns")
        for column, cell in zip(columns, row):
            try:
                column.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cell {cell!r} is not a number") from None
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
    accounting_path = root / "accounting.json"
    _header_version(
        accounting_path, _json_line(accounting_path, 1, accounting_path.read_text()), "accounting"
    )
    out = {
        "spans": len(spans),
        "series": len(series["time"]),
        "series_columns": len(series) - 1,
    }
    attempts_path = root / "attempts.jsonl"
    if attempts_path.exists():
        out["attempts"] = len(load_attempts_jsonl(attempts_path))
    return out

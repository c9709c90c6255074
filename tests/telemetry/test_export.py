"""Telemetry export round-trips: spans JSONL, series CSV, validation."""

import json
import math

import numpy as np
import pytest

from repro.experiments.io import (
    load_series_csv,
    load_spans_jsonl,
    save_series_csv,
    save_spans_jsonl,
    save_telemetry,
    validate_telemetry_dir,
)
from repro.telemetry import SPAN_FIELDS, RequestSpan


def span(index=0, staleness=1.5e-4, **overrides):
    values = dict(
        index=index, client_id=16, server_id=3,
        t_created=0.0, t_selected=0.001, t_enqueued=0.0015,
        t_start=0.002, t_completed=0.01, t_response=0.0101,
        service_time=0.008, response_time=0.0101, poll_time=0.001,
        queue_wait=0.0005, perceived_load=2.0, staleness=staleness,
        retries=0, failed=False, rejects=0,
    )
    values.update(overrides)
    return RequestSpan(**values)


def test_spans_jsonl_roundtrip(tmp_path):
    spans = [span(0), span(1, staleness=math.nan, perceived_load=math.nan)]
    path = tmp_path / "spans.jsonl"
    save_spans_jsonl(spans, path)
    loaded = load_spans_jsonl(path)
    assert len(loaded) == 2
    assert loaded[0] == spans[0].to_dict()
    # nan round-trips through JSON null back to nan
    assert math.isnan(loaded[1]["staleness"])
    assert math.isnan(loaded[1]["perceived_load"])
    assert loaded[1]["index"] == 1  # int fields untouched by null mapping


def test_spans_jsonl_header_carries_schema(tmp_path):
    from repro.experiments.io import TELEMETRY_SCHEMA_VERSION

    path = tmp_path / "spans.jsonl"
    save_spans_jsonl([span()], path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["kind"] == "repro.telemetry.spans"
    assert header["schema_version"] == TELEMETRY_SCHEMA_VERSION == 2
    assert header["fields"] == list(SPAN_FIELDS)
    assert "rejects" in SPAN_FIELDS


def test_spans_jsonl_v1_loads_with_rejects_defaulted(tmp_path):
    """v1 exports predate the per-span rejects count; they must still
    load, with the field defaulted to 0 (back-compat contract)."""
    path = tmp_path / "spans.jsonl"
    save_spans_jsonl([span(rejects=7)], path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    record = json.loads(lines[1])
    header["schema_version"] = 1
    del record["rejects"]
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    loaded = load_spans_jsonl(path)
    assert loaded[0]["rejects"] == 0


def test_spans_jsonl_v2_requires_rejects(tmp_path):
    """Current-version records missing the rejects field are malformed."""
    path = tmp_path / "spans.jsonl"
    save_spans_jsonl([span()], path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["rejects"]
    path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="rejects"):
        load_spans_jsonl(path)


def test_spans_jsonl_rejects_malformed(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ValueError, match="header"):
        load_spans_jsonl(path)

    save_spans_jsonl([span()], path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["staleness"]
    path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(ValueError, match="staleness"):
        load_spans_jsonl(path)


def test_spans_jsonl_rejects_newer_schema(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        json.dumps({"kind": "repro.telemetry.spans", "schema_version": 999,
                    "fields": []}) + "\n"
    )
    with pytest.raises(ValueError, match="newer"):
        load_spans_jsonl(path)


def test_series_csv_roundtrip(tmp_path):
    series = {
        "time": np.array([0.0, 0.05, 0.1]),
        "server0.queue": np.array([0.0, 3.0, 1.0]),
        "net.inflight": np.array([0.0, 2.0, 0.0]),
    }
    path = tmp_path / "series.csv"
    save_series_csv(series, path)
    loaded = load_series_csv(path)
    assert set(loaded) == set(series)
    for name in series:
        np.testing.assert_array_equal(loaded[name], series[name])


def test_series_csv_requires_time_and_alignment(tmp_path):
    with pytest.raises(ValueError, match="time"):
        save_series_csv({"x": np.zeros(3)}, tmp_path / "series.csv")
    with pytest.raises(ValueError, match="length"):
        save_series_csv(
            {"time": np.zeros(3), "x": np.zeros(2)}, tmp_path / "series.csv"
        )


def test_save_telemetry_and_validate(tmp_path):
    from repro.experiments import SimulationConfig
    from repro.experiments.runner import run_with_telemetry

    _, report = run_with_telemetry(
        SimulationConfig(policy="polling", policy_params={"poll_size": 2},
                         n_requests=150, seed=1)
    )
    paths = save_telemetry(report, tmp_path / "out")
    assert all(p.exists() for p in paths.values())
    checked = validate_telemetry_dir(tmp_path / "out")
    assert checked["spans"] == 150
    assert checked["series"] == len(report.series["time"])
    assert checked["series_columns"] == len(report.series) - 1

    # Corrupting any artifact makes validation fail loudly.
    (tmp_path / "out" / "accounting.json").write_text('{"kind": "nope"}')
    with pytest.raises(ValueError, match="kind"):
        validate_telemetry_dir(tmp_path / "out")


# ----------------------------------------------------------------------
# attempt records (reliability layer): attempts.jsonl
# ----------------------------------------------------------------------

def attempt(index=0, **overrides):
    from repro.telemetry import AttemptRecord

    values = dict(
        index=index, attempt=0, kind="primary", server_id=2,
        t_dispatch=0.001, breaker_state="closed",
    )
    values.update(overrides)
    return AttemptRecord(**values)


def test_attempts_jsonl_roundtrip(tmp_path):
    from repro.experiments.io import load_attempts_jsonl, save_attempts_jsonl
    from repro.telemetry import ATTEMPT_FIELDS

    records = [attempt(0), attempt(1, kind="hedge", breaker_state="half_open")]
    path = tmp_path / "attempts.jsonl"
    save_attempts_jsonl(records, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["kind"] == "repro.telemetry.attempts"
    assert header["fields"] == list(ATTEMPT_FIELDS)
    loaded = load_attempts_jsonl(path)
    assert loaded == [r.to_dict() for r in records]


def test_attempts_jsonl_rejects_malformed(tmp_path):
    from repro.experiments.io import load_attempts_jsonl, save_attempts_jsonl

    path = tmp_path / "attempts.jsonl"
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ValueError, match="header"):
        load_attempts_jsonl(path)

    save_attempts_jsonl([attempt()], path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["breaker_state"]
    path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(ValueError, match="breaker_state"):
        load_attempts_jsonl(path)

    path.write_text(
        json.dumps({"kind": "repro.telemetry.attempts", "schema_version": 999,
                    "fields": []}) + "\n"
    )
    with pytest.raises(ValueError, match="newer"):
        load_attempts_jsonl(path)


def test_attempts_file_absent_without_reliability(tmp_path):
    """Non-hardened telemetry runs keep the legacy export layout: no
    attempts.jsonl at all (absent, not empty)."""
    from repro.experiments import SimulationConfig
    from repro.experiments.runner import run_with_telemetry

    _, report = run_with_telemetry(SimulationConfig(n_requests=100, seed=2))
    assert report.attempts == ()
    save_telemetry(report, tmp_path / "out")
    assert not (tmp_path / "out" / "attempts.jsonl").exists()
    assert "attempts" not in validate_telemetry_dir(tmp_path / "out")


def test_attempts_exported_and_validated_for_hardened_run(tmp_path):
    from repro.experiments import SimulationConfig
    from repro.experiments.chaos import hardened_reliability_params
    from repro.experiments.io import load_attempts_jsonl
    from repro.experiments.runner import run_with_telemetry

    _, report = run_with_telemetry(
        SimulationConfig(
            n_requests=150, seed=2,
            cluster_params={"request_timeout": 0.25, "max_retries": 4},
            reliability_params=hardened_reliability_params(),
        )
    )
    # Every request dispatched at least one primary attempt.
    assert len(report.attempts) >= 150
    assert {a.kind for a in report.attempts} <= {"primary", "hedge"}
    paths = save_telemetry(report, tmp_path / "out")
    assert paths["attempts"].exists()
    checked = validate_telemetry_dir(tmp_path / "out")
    assert checked["attempts"] == len(report.attempts)
    loaded = load_attempts_jsonl(paths["attempts"])
    assert loaded[0] == report.attempts[0].to_dict()


def test_exported_lines_match_the_asdict_records(tmp_path):
    """``to_dict`` walks SPAN_FIELDS / ATTEMPT_FIELDS instead of calling
    ``dataclasses.asdict``: same keys, same order, same JSONL bytes."""
    from dataclasses import asdict

    from repro.experiments import SimulationConfig
    from repro.experiments.chaos import hardened_reliability_params
    from repro.experiments.io import _nan_to_null
    from repro.experiments.runner import run_with_telemetry

    _, report = run_with_telemetry(
        SimulationConfig(
            n_requests=150, seed=3,
            cluster_params={"request_timeout": 0.25, "max_retries": 4},
            reliability_params=hardened_reliability_params(),
        )
    )
    paths = save_telemetry(report, tmp_path / "out")
    for name, records in (("spans", report.spans), ("attempts", report.attempts)):
        assert records
        for record in records:
            assert list(record.to_dict().items()) == list(asdict(record).items())
        lines = paths[name].read_text().splitlines()[1:]
        assert lines == [
            json.dumps(_nan_to_null(asdict(record)), sort_keys=True) for record in records
        ]

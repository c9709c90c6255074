"""Telemetry export round-trips: spans JSONL, series CSV, validation."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# malformed exports: a ValueError naming path:line, never a crash
# ----------------------------------------------------------------------

def _export(tmp_path):
    """A valid spans + attempts + series + accounting export to break."""
    from repro.experiments.io import save_attempts_jsonl

    save_spans_jsonl([span(0), span(1, staleness=math.nan)], tmp_path / "spans.jsonl")
    save_attempts_jsonl([attempt(0), attempt(1, kind="hedge")], tmp_path / "attempts.jsonl")
    save_series_csv(
        {"time": np.array([0.0, 0.05]), "net.inflight": np.array([0.0, 2.0])},
        tmp_path / "series.csv",
    )
    (tmp_path / "accounting.json").write_text(json.dumps(
        {"kind": "repro.telemetry.accounting", "schema_version": 2, "accounting": {}}
    ))
    return tmp_path


def _replace_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


def _raises_at(load, path, lineno):
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "):
        load(path)


def _loader(name):
    from repro.experiments import io

    return {
        "spans": io.load_spans_jsonl,
        "attempts": io.load_attempts_jsonl,
        "series": io.load_series_csv,
    }[name]


@pytest.mark.parametrize("name", ["spans", "attempts"])
def test_a_header_that_is_a_list_names_the_line(tmp_path, name):
    path = _export(tmp_path) / f"{name}.jsonl"
    _replace_line(path, 1, json.dumps([f"repro.telemetry.{name}", 2]))
    _raises_at(_loader(name), path, 1)


@pytest.mark.parametrize("name", ["spans", "attempts"])
def test_a_boolean_schema_version_names_the_line(tmp_path, name):
    path = _export(tmp_path) / f"{name}.jsonl"
    header = json.loads(path.read_text().splitlines()[0])
    _replace_line(path, 1, json.dumps({**header, "schema_version": True}))
    _raises_at(_loader(name), path, 1)


@pytest.mark.parametrize("shape", ["list", "int"])
@pytest.mark.parametrize("name", ["spans", "attempts"])
def test_a_record_that_is_no_object_names_the_line(tmp_path, name, shape):
    path = _export(tmp_path) / f"{name}.jsonl"
    # a list of every field name passes a field-presence check
    fields = json.loads(path.read_text().splitlines()[0])["fields"]
    _replace_line(path, 3, json.dumps(fields if shape == "list" else 5))
    _raises_at(_loader(name), path, 3)


@pytest.mark.parametrize(
    "name,field,value",
    [
        ("spans", "index", "x"),
        ("spans", "server_id", [1]),
        ("spans", "response_time", "slow"),
        ("spans", "retries", True),
        ("spans", "rejects", None),
        ("spans", "staleness", False),
        ("spans", "failed", 0),
        ("attempts", "attempt", 1.0),
        ("attempts", "kind", 5),
        ("attempts", "t_dispatch", {}),
    ],
)
def test_a_wrong_typed_field_names_the_line_and_the_field(tmp_path, name, field, value):
    """Each field loads only from the JSON type of its annotation: an int
    from an integer (not ``true``), a float from a number or ``null``, a
    str from a string, a bool from ``true``/``false``."""
    path = _export(tmp_path) / f"{name}.jsonl"
    record = json.loads(path.read_text().splitlines()[2])
    _replace_line(path, 3, json.dumps({**record, field: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: field {field!r}"):
        _loader(name)(path)


def test_a_series_with_only_the_header_comment_names_the_line(tmp_path):
    path = _export(tmp_path) / "series.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    _raises_at(load_series_csv, path, 2)


@pytest.mark.parametrize("row", ["0.1", "0.1,1.0,7.0"], ids=["short", "long"])
def test_a_ragged_series_row_names_the_line(tmp_path, row):
    path = _export(tmp_path) / "series.csv"
    _replace_line(path, 4, row)
    _raises_at(load_series_csv, path, 4)


def test_a_bad_series_version_or_cell_names_the_line(tmp_path):
    path = _export(tmp_path) / "series.csv"
    good = path.read_text()
    _replace_line(path, 1, "# repro.telemetry.series vX")
    _raises_at(load_series_csv, path, 1)
    path.write_text(good)
    _replace_line(path, 3, "abc,0.0")
    _raises_at(load_series_csv, path, 3)


def test_accounting_that_is_a_list_names_the_file(tmp_path):
    root = _export(tmp_path)
    (root / "accounting.json").write_text("[]")
    _raises_at(lambda _path: validate_telemetry_dir(root), root / "accounting.json", 1)


class _Row(dict):
    """A loaded record, fed back through the writers."""

    def to_dict(self):
        return dict(self)


def _canonical(records):
    from repro.experiments.io import _nan_to_null

    return [json.dumps(_nan_to_null(r), sort_keys=True) for r in records]


def _round_trips(name, path, loaded):
    from repro.experiments import io

    if name == "series":
        io.save_series_csv(loaded, path)
        again = io.load_series_csv(path)
        assert set(again) == set(loaded)
        for column in loaded:
            np.testing.assert_array_equal(again[column], loaded[column])
        return
    save = io.save_spans_jsonl if name == "spans" else io.save_attempts_jsonl
    save([_Row(record) for record in loaded], path)
    assert _canonical(_loader(name)(path)) == _canonical(loaded)


_JUNK_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 300), st.floats(allow_nan=True),
        st.text(max_size=4),
        st.sampled_from(["repro.telemetry.spans", "repro.telemetry.attempts", "kind"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["kind", "schema_version", "index", "staleness", "rejects",
                             "breaker_state", "fields", "bogus"]),
            inner, max_size=3,
        ),
    ),
    max_leaves=6,
)


#: a value of each JSON type, for a field whose annotation wants another
_ANY_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.floats(allow_nan=False),
    st.text(max_size=4), st.just([1]), st.just({}),
)


@st.composite
def _mutated_line(draw, text):
    """One line of a JSONL export, with one key replaced (by junk or by a
    value of some JSON type) or deleted, or the whole line replaced by
    JSON-shaped or raw junk."""
    document = json.loads(text)
    choice = draw(st.sampled_from(["key", "retype", "delete", "json", "raw"]))
    if choice in ("key", "retype", "delete") and isinstance(document, dict) and document:
        key = draw(st.sampled_from(sorted(document)))
        if choice == "delete":
            del document[key]
        else:
            document[key] = draw(_JUNK_JSON if choice == "key" else _ANY_TYPED)
        return json.dumps(document)
    if choice == "raw":
        return draw(st.text(max_size=12))
    return json.dumps(draw(_JUNK_JSON))


_SERIES_CELL = st.one_of(
    st.text(max_size=6), st.sampled_from(["nan", "inf", "-1e400", "1_0", " 2", "time", ""]),
)


@given(data=st.data(), name=st.sampled_from(["spans", "attempts", "series"]))
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_junk_telemetry_loads_and_round_trips_or_raises_value_error(
    data, name, tmp_path_factory
):
    """One line or cell of a valid export replaced by junk, or removed:
    the loader returns records that its writer round-trips, or raises
    ValueError — never an AttributeError / KeyError / TypeError /
    IndexError / StopIteration from inside."""
    root = tmp_path_factory.getbasetemp() / "junk_telemetry"
    root.mkdir(exist_ok=True)
    _export(root)
    path = root / ("series.csv" if name == "series" else f"{name}.jsonl")
    lines = path.read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        del lines[index]
    elif name == "series":
        cells = lines[index].split(",")
        if data.draw(st.booleans()):
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_SERIES_CELL)
        else:
            cells = data.draw(st.lists(_SERIES_CELL, max_size=4))
        lines[index] = ",".join(cells)
    else:
        lines[index] = data.draw(_mutated_line(lines[index]))
    path.write_text("\n".join(lines) + "\n")
    try:
        loaded = _loader(name)(path)
    except ValueError:
        return
    if name != "series":
        _assert_well_typed(name, loaded)
    _round_trips(name, path, loaded)


def _assert_well_typed(name, records):
    """Every loaded field holds its annotation's type (``nan`` where a
    float field was ``null``)."""
    from dataclasses import fields

    from repro.telemetry import AttemptRecord

    accepted = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}
    record_type = RequestSpan if name == "spans" else AttemptRecord
    for record in records:
        for f in fields(record_type):
            value = record[f.name]
            assert isinstance(value, accepted[f.type]), (f.name, value)
            assert f.type == "bool" or not isinstance(value, bool), (f.name, value)

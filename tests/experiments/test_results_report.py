"""Tests for ResultTable and text rendering."""

import pytest

from repro.experiments import ResultTable, format_table
from repro.experiments.report import format_series


def test_table_requires_columns():
    with pytest.raises(ValueError):
        ResultTable([])


def test_add_and_column():
    table = ResultTable(["a", "b"])
    table.add(a=1, b=2.5)
    table.add(a=3, b=4.5)
    assert len(table.rows) == 2
    assert table.column("a") == [1, 3]
    with pytest.raises(KeyError):
        table.column("c")


def test_add_missing_column_rejected():
    table = ResultTable(["a", "b"])
    with pytest.raises(ValueError):
        table.add(a=1)


def test_render_alignment_and_floats():
    table = ResultTable(["name", "value"])
    table.add(name="x", value=1.23456)
    table.add(name="y", value=None)
    text = table.render(floatfmt="{:.2f}")
    assert "1.23" in text and "name" in text
    assert text.splitlines()[-1].split() == ["y", "-"]


def test_format_table_validation():
    with pytest.raises(ValueError):
        format_table(["a"], [["1", "2"]])


def test_format_table_empty_rows():
    text = format_table(["a", "bb"], [])
    assert "a" in text and "bb" in text


def test_format_series():
    text = format_series("x", [1, 2], {"s1": [0.1, 0.2], "s2": [None, 0.4]})
    assert "s1" in text and "-" in text
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows


def test_staleness_response_table_buckets():
    from repro.experiments import staleness_response_table

    rng = __import__("numpy").random.default_rng(0)
    staleness = rng.uniform(1e-4, 5e-4, size=200)
    resp = 0.01 + staleness * 10 + rng.uniform(0, 1e-4, size=200)
    text = staleness_response_table(staleness, resp, n_bins=4)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["staleness", "n"]
    assert len(lines) == 2 + 4  # header + rule + 4 quantile buckets
    assert "(no info)" not in text


def test_staleness_response_table_no_info_row():
    import numpy as np

    from repro.experiments import staleness_response_table

    staleness = np.array([1e-4, np.nan, np.nan])
    resp = np.array([0.01, 0.02, 0.03])
    text = staleness_response_table(staleness, resp)
    assert "(no info)" in text


def test_staleness_response_table_empty():
    import numpy as np

    from repro.experiments import staleness_response_table

    empty = np.array([])
    assert "no measured requests" in staleness_response_table(empty, empty)


def test_staleness_response_table_validation():
    import numpy as np

    from repro.experiments import staleness_response_table

    with pytest.raises(ValueError):
        staleness_response_table(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        staleness_response_table(np.zeros(2), np.zeros(2), n_bins=0)

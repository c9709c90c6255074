"""Tabular result container for sweeps."""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.report import format_table

__all__ = ["ResultTable"]


class ResultTable:
    """An ordered list of result rows (dicts) with rendering helpers."""

    def __init__(self, columns: Sequence[str]):
        if not columns:
            raise ValueError("at least one column required")
        self.columns = list(columns)
        self.rows: list[dict[str, Any]] = []

    def add(self, **values: Any) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"missing columns: {sorted(missing)}")
        self.rows.append({column: values[column] for column in self.columns})

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self.rows]

    def render(self, floatfmt: str = "{:.3f}") -> str:
        body = [
            [_fmt(row[column], floatfmt) for column in self.columns]
            for row in self.rows
        ]
        return format_table(self.columns, body)


def _fmt(value: Any, floatfmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return floatfmt.format(value)
    return str(value)

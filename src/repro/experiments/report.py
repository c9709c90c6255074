"""Plain-text rendering of tables and series."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.metrics import quantiles

__all__ = [
    "format_table",
    "format_series",
    "staleness_response_table",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Aligned monospace table with a header rule."""
    headers = [str(h) for h in headers]
    str_rows = [[str(cell) for cell in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(headers)}")
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(len(headers))
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    rule = "  ".join("-" * width for width in widths)
    return "\n".join([line(headers), rule] + [line(r) for r in str_rows])


def format_series(
    x_label: str,
    x_values: Sequence,
    series: dict[str, Sequence[float]],
    value_fmt: str = "{:.2f}",
) -> str:
    """One row per x value, one column per named series (figure panels)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row = [str(x)]
        for name in series:
            value = series[name][i]
            row.append("-" if value is None else value_fmt.format(value))
        rows.append(row)
    return format_table(headers, rows)


def staleness_response_table(
    staleness: Sequence[float],
    response_times: Sequence[float],
    n_bins: int = 5,
) -> str:
    """Response time as a function of decision-information age.

    Buckets requests by the *staleness* of the load index their dispatch
    decision used (telemetry spans provide both arrays, aligned), then
    summarizes response time per bucket — the per-trace analogue of the
    attained-service-vs-staleness curves in Hellemans & Van Houdt
    (arXiv:2011.08250). Buckets are staleness quantiles so each row
    carries comparable sample mass; requests whose policy attached no
    decision annotation (random, round-robin, ...) land in a separate
    ``(no info)`` row. Rows with no samples are omitted.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    staleness = np.asarray(staleness, dtype=np.float64)
    response_times = np.asarray(response_times, dtype=np.float64)
    if staleness.shape != response_times.shape:
        raise ValueError("staleness and response_times must be aligned")
    measured = np.isfinite(response_times)
    known = measured & np.isfinite(staleness)
    headers = ["staleness", "n", "mean stale (ms)", "mean resp (ms)", "p95 resp (ms)"]

    def row(label: str, stale: np.ndarray, resp: np.ndarray) -> list[str]:
        return [
            label,
            str(resp.size),
            f"{stale.mean() * 1e3:.3f}" if stale.size and np.isfinite(stale).all() else "-",
            f"{resp.mean() * 1e3:.3f}",
            f"{quantiles(resp, (0.95,))[0] * 1e3:.3f}",
        ]

    rows = []
    if known.any():
        stale = staleness[known]
        resp = response_times[known]
        edges = np.unique(quantiles(stale, np.linspace(0.0, 1.0, n_bins + 1)))
        if edges.size == 1:  # constant staleness -> a single bucket
            rows.append(row(f"{edges[0] * 1e3:.3f}ms", stale, resp))
        else:
            for lo, hi in zip(edges[:-1], edges[1:]):
                mask = (stale >= lo) & ((stale < hi) | (hi == edges[-1]) & (stale <= hi))
                if not mask.any():
                    continue
                rows.append(
                    row(f"[{lo * 1e3:.3f}, {hi * 1e3:.3f}]ms", stale[mask], resp[mask])
                )
    no_info = measured & ~np.isfinite(staleness)
    if no_info.any():
        rows.append(
            row("(no info)", np.array([]), response_times[no_info])
        )
    if not rows:
        return "no measured requests with telemetry spans"
    return format_table(headers, rows)

"""Shared plumbing of the ablation benches (``pytest benchmarks/bench_*.py``).

Every bench regenerates one ablation table and both prints it (visible
with ``pytest -s``) and writes it to ``benchmarks/output/<name>.txt`` so
the artifact survives output capturing. The paper's own tables and
figures are rows of ``benchmarks/claims.py``, not benches.

Scale control: set ``REPRO_BENCH_SCALE`` (float, default 1.0) to shrink
or grow the request counts, e.g. ``REPRO_BENCH_SCALE=0.25 pytest
benchmarks/bench_*.py`` for a quick pass.
"""

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 2000) -> int:
    return max(minimum, int(n * bench_scale()))


@pytest.fixture
def report():
    """report(name, text): persist + print a reproduction artifact."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _report

"""Smoke-run every example script end-to-end (reduced sizes via env)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.slow
def test_quickstart():
    out = run_example("quickstart.py")
    assert "IDEAL oracle" in out
    assert "polling d=2" in out


@pytest.mark.slow
def test_search_engine_trace():
    out = run_example("search_engine_trace.py")
    assert "Fine-Grain trace" in out
    assert "prototype_ms" in out


@pytest.mark.slow
def test_photo_album_cluster():
    out = run_example("photo_album_cluster.py")
    assert "end-to-end page" in out
    assert "image_store/p1" in out


@pytest.mark.slow
def test_failure_resilience():
    out = run_example("failure_resilience.py")
    assert "<- crash" in out
    assert "<- recovery" in out
    assert "failed requests: 0" in out


def test_every_bench_output_has_a_bench_that_writes_it():
    """A committed ``benchmarks/output/*.txt`` whose writer was deleted
    reads as a current result. The one writer is ``claims.py``: its
    table and one report per driver."""
    from tests.integration.test_claims import CLAIMS as claims

    outputs = {path.stem for path in (EXAMPLES.parent / "benchmarks" / "output").glob("*.txt")}
    assert outputs == {"claims", *claims.DRIVERS}

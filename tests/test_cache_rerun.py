"""``benchmarks/cache_rerun.py`` on stub commands: the second run passes only
with 0 cache misses and the first run's output, less the cache and
wall-time footers; a failing command fails the check by name."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: a campaign stand-in: a table, then the footers; the k-th run prints
#: ``ROWS[k]`` and ``MISSES[k]``
_STUB = """
import sys
from pathlib import Path
runs = Path(sys.argv[1])
k = len(runs.read_text().splitlines()) if runs.exists() else 0
runs.write_text("run\\n" * (k + 1))
ROWS, MISSES = {rows!r}, {misses!r}
print("policy  mean_ms")
print(ROWS[k])
print(f"[cache: {{4 - MISSES[k]}} hits, {{MISSES[k]}} misses -> .repro-cache]")
print()
print(f"[chaos regenerated in {{1.5 / (k + 1):.1f}}s]")
"""


def _cache_rerun():
    spec = importlib.util.spec_from_file_location(
        "cache_rerun", ROOT / "benchmarks" / "cache_rerun.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp_path, rows, misses) -> int:
    stub = tmp_path / "stub.py"
    stub.write_text(textwrap.dedent(_STUB.format(rows=rows, misses=misses)))
    return _cache_rerun().main([sys.executable, str(stub), str(tmp_path / "runs")])


def test_a_second_run_from_the_cache_with_the_same_table_passes(tmp_path, capsys):
    assert _run(tmp_path, ["random 12.5", "random 12.5"], [4, 0]) == 0
    out, _ = capsys.readouterr()
    assert out.count("random 12.5") == 2
    assert "served entirely from the cache" in out


def test_a_cache_miss_on_the_second_run_fails(tmp_path, capsys):
    assert _run(tmp_path, ["random 12.5", "random 12.5"], [4, 1]) == 1
    assert "not served from the cache: [cache: 3 hits, 1 misses" in capsys.readouterr().err


def test_a_different_table_on_the_second_run_fails(tmp_path, capsys):
    assert _run(tmp_path, ["random 12.5", "random 12.6"], [4, 0]) == 1
    err = capsys.readouterr().err
    assert "differs from the first's" in err
    assert "-random 12.5" in err and "+random 12.6" in err


def test_no_cache_footer_fails():
    module = _cache_rerun()
    assert module.problems(["a"], ["a"]) == ["the second run printed no [cache: ...] line"]


def test_a_failing_command_fails_by_name(tmp_path):
    with pytest.raises(SystemExit, match="exited 3"):
        _cache_rerun().main([sys.executable, "-c", "raise SystemExit(3)"])

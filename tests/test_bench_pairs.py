"""``benchmarks/pairs.py`` on stub trees: a side whose ``run.py`` dies
before printing its result fails the pair by name, never with a bare
``StopIteration`` that loses the side's traceback, and ends the run; each
metric gets a verdict against its ``BENCHMARK.json`` bound, and one over
its bound fails the run."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_GOOD = """
import json
with open("runs", "a") as runs:
    runs.write("run\\n")
print("DETAIL " + json.dumps({"fingerprint": "f0"}))
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.2, "unit": "s"},
                              "wall_s": {"value": 1.5, "unit": "s"}}}))
"""

_DIES = """
import sys
print("== exact_core ==")
print("Traceback (most recent call last):", file=sys.stderr)
print("ImportError: cannot import name 'nowhere' from 'repro'", file=sys.stderr)
sys.exit(1)
"""


#: a run.py whose k-th run reports ``setup_s = VALUES[k % len(VALUES)]``
_SERIES = """
import json
from pathlib import Path
runs = Path("runs")
k = len(runs.read_text().splitlines()) if runs.exists() else 0
runs.write_text("run\\n" * (k + 1))
VALUES = {values!r}
print("DETAIL " + json.dumps({{"fingerprint": "f0"}}))
print(json.dumps({{"correct": True, "failed": 0,
                  "metrics": {{"setup_s": {{"value": VALUES[k % len(VALUES)], "unit": "s"}},
                              "wall_s": {{"value": 1.5, "unit": "s"}}}}}}))
"""


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, run_py: str) -> str:
    (root / "benchmarks" / "suite").mkdir(parents=True)
    (root / "benchmarks" / "suite" / "run.py").write_text(textwrap.dedent(run_py))
    (root / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]})
    )
    return str(root)


def _runs(tree: str) -> int:
    runs = Path(tree) / "runs"
    return len(runs.read_text().splitlines()) if runs.exists() else 0


@pytest.mark.parametrize("dying, good_runs", [("change", 1), ("parent", 0)])
def test_a_side_that_dies_fails_its_pair_by_name(tmp_path, capsys, dying, good_runs):
    """Pair 1 runs parent first: a dying parent skips the change side; a
    dying change ends the run after the parent's one run."""
    trees = {side: _tree(tmp_path / side, _DIES if side == dying else _GOOD)
             for side in ("parent", "change")}
    assert _pairs().main("exact_core", trees["parent"], trees["change"], "4") == 1
    out, err = capsys.readouterr()
    assert f"pair 1/4: {dying} side failed" in err and "pair 2/4" not in err + out
    assert f"tree {trees[dying]}: run.py exited 1 before its result" in err
    assert "ImportError: cannot import name 'nowhere'" in err
    assert "pairs=0 of 4" in out
    assert "sim_fingerprint equal: False" in out
    good = "parent" if dying == "change" else "change"
    assert _runs(trees[good]) == good_runs


def test_two_sound_stub_pairs_pass(tmp_path, capsys):
    parent = _tree(tmp_path / "parent", _GOOD)
    change = _tree(tmp_path / "change", _GOOD)
    assert _pairs().main("exact_core", parent, change, "2") == 0
    out = capsys.readouterr().out
    assert "wins 0/2" in out and "sim_fingerprint equal: True" in out
    assert _runs(parent) == _runs(change) == 2


@pytest.mark.parametrize("parent, change, verdict, code", [
    # 4/4 wins, median 0.2 better against a parent IQR of 0.05
    ([1.0, 1.05, 1.1, 1.0], [0.8, 0.85, 0.9, 0.8], "gain", 0),
    # 30% worse against a 25% bound
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "over bound", 1),
    # each side's IQR (0.5) is wider than 25% of the median
    ([1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0], "unresolved", 0),
    # 10% worse, inside the bound, tight spread
    ([1.0, 1.0, 1.0, 1.0], [1.1, 1.1, 1.1, 1.1], "ok", 0),
    # better on every pair, but by less than the parent's IQR
    ([1.0, 1.2, 1.0, 1.2], [0.95, 1.15, 0.95, 1.15], "ok", 0),
])
def test_each_metric_gets_a_verdict_against_its_bound(tmp_path, capsys, parent, change,
                                                      verdict, code):
    trees = {side: _tree(tmp_path / side, _SERIES.format(values=values))
             for side, values in (("parent", parent), ("change", change))}
    assert _pairs().main("exact_core", trees["parent"], trees["change"], "4") == code
    out = capsys.readouterr().out
    assert f"bound 25%: {verdict}\n" in out
    assert "sim_fingerprint equal: True" in out
    assert ("over bound: setup_s" in out) == (verdict == "over bound")

"""The fast engine reproduces its pinned outputs bit for bit.

Grid and digest live in ``golden_fastpath.py``; the golden file was
written by the per-tick kernel at commit ``15e05e9``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from golden_fastpath import GOLDEN_PATH, digest, golden_cells

from repro.sim.fastpath import run_fastpath

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CELLS = golden_cells()


def test_golden_file_covers_exactly_the_grid():
    assert sorted(GOLDEN) == sorted(key for key, _, _ in CELLS)


@pytest.mark.parametrize(
    "key, config, tick", CELLS, ids=[key for key, _, _ in CELLS]
)
def test_fastpath_output_matches_golden_digest(key, config, tick):
    run = run_fastpath(config, tick=tick, record_occupancy=False)
    assert digest(run) == GOLDEN[key]

"""Golden pins of the paper's own figures: Fig. 3, Figs. 4 and 6,
Table 2 and the §2.4 message count.

The pins under ``golden/figures/`` were written by the per-figure sweep
drivers that preceded the figure builtins, on each figure's default grid
at 400 requests a cell and seeds 0/1/2 (``regen_figure_pins.py``). Every
test replays one (figure, seed) on the heap engine and demands:

- the same set of cells, by ``config_key`` — so cache entries written
  before the figures became builtin scenarios still serve them;
- each cell's :meth:`~repro.experiments.runner.SimulationResult.digest`;
- the rendered table, byte for byte.

Calendar-engine equality for these cells is left to ``repro parity``,
which holds heap and calendar digests equal on its own suite.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from golden_campaigns import (
    FIGURE_DIGESTS,
    FIGURES,
    GOLDEN_SEEDS,
    figure_render_path,
    run_figure,
)

from repro.experiments.cache import config_key

PINS = json.loads(FIGURE_DIGESTS.read_text())
_CASES = [(name, seed) for name in FIGURES for seed in GOLDEN_SEEDS]


@pytest.mark.parametrize("name,seed", _CASES)
def test_figure_cells_and_table_bit_identical(name, seed):
    results, rendered = run_figure(name, seed)
    pinned = PINS[name][str(seed)]
    assert len(results) == len(pinned)
    assert {config_key(r.config): r.digest() for r in results} == pinned
    assert rendered + "\n" == figure_render_path(name, seed).read_text(), (
        f"{name} seed={seed}: rendered table drifted from the golden pin"
    )


def test_pins_cover_every_figure_and_seed():
    assert sorted(PINS) == sorted(FIGURES)
    for name, seed in _CASES:
        assert figure_render_path(name, seed).exists()
    # 246 cells a seed: fig3 54, fig4 90, fig6 90, table2 6, messages 6
    assert sum(len(PINS[name]["0"]) for name in FIGURES) == 246

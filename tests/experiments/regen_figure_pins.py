"""Regenerate the paper-figure pins (intentional re-baseline only).

Usage::

    PYTHONPATH=src python tests/experiments/regen_figure_pins.py

Writes ``golden/figures/digests.json`` (every cell's ``config_key``
and ``digest()``, per figure and seed) and
``golden/figures/<figure>_seed<seed>.txt`` (the rendered table) with
the code on disk. The pins were first written
by the per-figure sweep drivers that preceded the figure builtins; only
rerun this when a figure's output is supposed to change, and name the
cells that moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from golden_campaigns import (
    FIGURE_DIGESTS,
    FIGURES,
    GOLDEN_SEEDS,
    figure_render_path,
    run_figure,
)

from repro.experiments.cache import config_key


def main() -> int:
    pins: dict[str, dict[str, dict[str, str]]] = {}
    for name in FIGURES:
        pins[name] = {}
        for seed in GOLDEN_SEEDS:
            results, rendered = run_figure(name, seed)
            pins[name][str(seed)] = {
                config_key(r.config): r.digest() for r in results
            }
            figure_render_path(name, seed).write_text(rendered + "\n")
            print(f"  {name} seed={seed}: {len(results)} cells")
    FIGURE_DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

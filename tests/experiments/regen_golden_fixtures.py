"""Regenerate the golden-equivalence fixtures (intentional re-baseline).

Usage::

    PYTHONPATH=src python tests/experiments/regen_golden_fixtures.py

The committed fixtures were produced by the *legacy* campaign drivers
(commit ``ec7e9e5`` for chaos/resilience/overload, ``cde6c29`` for
autoscale); running this script regenerates them with whatever code is
currently on disk. Only do that when the
campaign outputs are *supposed* to change, and call the re-baseline out
in the commit message — the whole point of the fixtures is to catch
unintended drift (see ``golden_campaigns.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from golden_campaigns import CAMPAIGNS, GOLDEN_DIR, GOLDEN_SEEDS, fixture_paths

from repro.experiments.io import save_results


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, runner in CAMPAIGNS.items():
        for seed in GOLDEN_SEEDS:
            report = runner(seed)
            results_path, render_path = fixture_paths(name, seed)
            save_results(report.results, results_path)
            render_path.write_text(report.render() + "\n")
            print(f"  {name} seed={seed}: {len(report.results)} results "
                  f"-> {results_path.name}, {render_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

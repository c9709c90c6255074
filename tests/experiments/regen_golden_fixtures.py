"""Regenerate the golden-equivalence fixtures (intentional re-baseline).

Usage::

    PYTHONPATH=src python tests/experiments/regen_golden_fixtures.py

The fixtures were first produced by the *legacy* campaign drivers
(commit ``ec7e9e5`` for chaos/resilience/overload, ``cde6c29`` for
autoscale) and have held byte for byte since, with one re-baseline:
PR 14 (same-instant delivery groups, DESIGN.md §7) lowered
``events_executed`` in every cell, because availability PUBLISH
refreshes sent while no ``faults`` are installed ride one scheduler
event per publish. That re-baseline changed the ``"events_executed":``
lines of the 12 ``.json`` files (each new value <= the old one) and no
other line; the 12 ``.txt`` reports did not change.

Running this script regenerates every fixture with whatever code is
currently on disk. Only do that when the campaign outputs are
*supposed* to change, and call the re-baseline out in the commit
message — the whole point of the fixtures is to catch unintended drift
(see ``golden_campaigns.py``). The script rewrites whole files, so
``wall_seconds`` (host noise, ignored by the tests) changes in every
result and config fields added since a fixture was written appear as
empty dicts; a re-baseline that should show only what moved keeps the
old text and replaces the lines of the field that moved.
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

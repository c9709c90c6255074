"""Regenerate the fast-engine golden digests (intentional re-baseline).

Usage::

    PYTHONPATH=src python tests/sim/regen_fastpath_digests.py

Rewrites ``tests/sim/golden/fastpath_digests.json`` from whatever
``repro.sim.fastpath`` is on disk. The file exists to catch a kernel
change that moves an output bit, so a change that only makes the kernel
faster must leave it untouched; regenerate only when the model itself
changes (tick semantics, RNG draw order, timing constants) and call the
re-baseline out in the commit message (see ``golden_fastpath.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from golden_fastpath import GOLDEN_PATH, digest, golden_cells

from repro.sim.fastpath import run_fastpath


def main() -> int:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    digests = {
        key: digest(run_fastpath(config, tick=tick, record_occupancy=False))
        for key, config, tick in golden_cells()
    }
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"  {len(digests)} cells -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared grid definitions for the golden-equivalence suite.

The scenario engine (:mod:`repro.experiments.scenario`) replaced the
bespoke grid/executor code inside the chaos, resilience, and overload
campaigns, and later their bespoke drivers and report classes too: a
campaign is now a spec builder plus a report layout, run through
``spec.run(...)``. Each step is only admissible because it is
*mechanically safe*: at fixed seeds the scenario-composed campaigns
must reproduce the legacy outputs bit-for-bit. The fixtures under
``tests/experiments/golden/`` pin those legacy outputs:

- ``chaos_*``, ``resilience_*``, ``overload_*`` were generated at
  commit ``ec7e9e5`` (the last tree before the scenario engine) by
  running the original campaign modules through
  ``regen_golden_fixtures.py``;
- ``autoscale_*`` were generated at commit ``cde6c29`` (the last tree
  with a separate ``autoscale_campaign`` driver and ``AutoscaleReport``
  class) by that commit's ``autoscale_campaign``.

``tests/experiments/test_scenario_golden.py`` replays the same grids
through the current code and asserts every ``SimulationResult`` field
(minus wall-clock noise) and every rendered report byte matches — on
both exact engines.

Regenerating the fixtures with ``python tests/experiments/
regen_golden_fixtures.py`` uses the *current* code, so only do that for
an intentional re-baseline (and say so in the commit message).

The paper's own sweeps (``fig3``, ``fig4``, ``fig6``, ``table2``,
``messages``) are pinned the same way under ``golden/figures/``, but
lighter: every cell's ``config_key`` and ``digest()`` in one file, and
each rendered table (``test_figure_golden.py``,
``regen_figure_pins.py``). They were written by the per-figure sweep
drivers before those became builtin scenarios.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

#: the seeds the golden suite pins (per ISSUE 7: 0/1/2)
GOLDEN_SEEDS = (0, 1, 2)

#: small-but-representative grid sizes: every code path (chaos spec
#: scaling, reliability axis, overload axis, report assembly) fires,
#: while the full suite stays a few seconds of simulation
_N_SERVERS = 8
_N_REQUESTS = 400


def _run(spec, engine=None):
    """Run ``spec`` in-process, on ``engine`` if one is named."""
    return (replace(spec, engine=engine) if engine else spec).run(parallel=False)


def run_chaos(seed: int, engine=None):
    """The legacy single-mode chaos grid: 3 policies x intensities 0/1.

    The policy triple is pinned explicitly (not ``DEFAULT_POLICIES``):
    the fixtures were generated when the default grid was exactly these
    three, and the default has since grown jiq/least-connections
    columns. The golden contract is about the *legacy* grid.
    """
    from repro.experiments.chaos import chaos_scenario_spec

    spec = chaos_scenario_spec(
        policies=(
            ("random", "random", {}),
            ("polling-3", "polling", {"poll_size": 3, "discard_slow": True}),
            ("broadcast-50ms", "broadcast", {"mean_interval": 0.05}),
        ),
        intensities=(0.0, 1.0),
        n_servers=_N_SERVERS,
        n_requests=_N_REQUESTS,
        seed=seed,
    )
    return _run(spec, engine)


def run_resilience(seed: int, engine=None):
    """The naive-vs-hardened grid: 2 modes x 2 policies x intensities 0/1."""
    from repro.experiments.chaos import resilience_scenario_spec

    spec = resilience_scenario_spec(
        policies=(
            ("random", "random", {}),
            ("polling-3", "polling", {"poll_size": 3, "discard_slow": True}),
        ),
        n_servers=_N_SERVERS,
        n_requests=_N_REQUESTS,
        seed=seed,
    )
    return _run(spec, engine)


def run_overload(seed: int, engine=None):
    """The static-vs-adaptive grid: 2 modes x 2 policies x loads 0.8/2.0."""
    from repro.experiments.overload import overload_scenario_spec

    spec = overload_scenario_spec(
        policies=(
            ("random", "random", {}),
            ("polling-3", "polling", {"poll_size": 3, "discard_slow": True}),
        ),
        offered_loads=(0.8, 2.0),
        n_servers=_N_SERVERS,
        n_requests=_N_REQUESTS,
        seed=seed,
    )
    return _run(spec, engine)


def run_autoscale(seed: int, engine=None):
    """The static-vs-autoscaled grid: 2 modes x 2 policies x loads
    0.8/2.0 x both dispatcher-fault levels."""
    from repro.experiments.autoscale import autoscale_scenario_spec

    spec = autoscale_scenario_spec(
        policies=(
            ("random", "random", {}),
            ("polling-3", "polling", {"poll_size": 3, "discard_slow": True}),
        ),
        offered_loads=(0.8, 2.0),
        n_servers=_N_SERVERS,
        n_requests=_N_REQUESTS,
        seed=seed,
    )
    return _run(spec, engine)


CAMPAIGNS = {
    "chaos": run_chaos,
    "resilience": run_resilience,
    "overload": run_overload,
    "autoscale": run_autoscale,
}


def fixture_paths(name: str, seed: int) -> tuple[Path, Path]:
    """(results archive, rendered report) fixture paths for a campaign."""
    base = GOLDEN_DIR / f"{name}_seed{seed}"
    return base.with_suffix(".json"), base.with_suffix(".txt")


# ----------------------------------------------------------------------
# the paper's figures
# ----------------------------------------------------------------------

#: the paper's sweeps, pinned cell by cell: every cell's ``config_key``
#: and ``digest()`` in one JSON file, and each rendered table beside it
FIGURES = ("fig3", "fig4", "fig6", "table2", "messages")
FIGURE_DIR = GOLDEN_DIR / "figures"
FIGURE_DIGESTS = FIGURE_DIR / "digests.json"
#: the default grid of each figure, at this size per cell
FIGURE_REQUESTS = 400

def run_figure(name: str, seed: int):
    """One paper figure on its default grid: ``(results, rendered)``."""
    from repro.experiments.scenario import builtin_spec

    report = builtin_spec(name, n_requests=FIGURE_REQUESTS, seed=seed).run(
        parallel=False
    )
    return report.results, report.render()


def figure_render_path(name: str, seed: int) -> Path:
    return FIGURE_DIR / f"{name}_seed{seed}.txt"

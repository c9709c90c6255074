"""Table 2: performance improvement of discarding slow-responding polls.

Prototype model, poll size 3, servers 90% busy. Paper values: Medium-
Grain -0.4% (slight loss), Poisson/Exp +3.2%, Fine-Grain +8.3%; mean
polling time drops from ~2.6-2.7 ms to ~1.0-1.1 ms. Our overheads are
calibrated to the §3.2 slow-poll profile, which yields somewhat larger
absolute polling times (see EXPERIMENTS.md); the *shape* — fine-grain
gains the most, medium-grain essentially nothing, and polling time
drops by more than half — is asserted below.
"""

from benchmarks.conftest import run_once, scaled
from repro.experiments.figures import table2_spec


def test_table2(benchmark, report):
    figure = run_once(
        benchmark,
        lambda: table2_spec(n_requests=scaled(25_000, minimum=12_000), seed=0).run(),
    )
    report("table2_discard", figure.render())

    rows = {row["workload"]: row for row in figure.table.rows}
    fine = rows["fine_grain"]
    medium = rows["medium_grain"]
    poisson = rows["poisson_exp"]

    # Polling time drops by more than half for every workload.
    for row in rows.values():
        assert row["opt_poll_ms"] < 0.6 * row["orig_poll_ms"]

    # Fine-grain gains the most; medium-grain ~nothing (paper: -0.4%;
    # its heavy service tail makes the cell noisy, hence the wide band).
    assert fine["improvement"] > 0.03
    assert fine["improvement"] > medium["improvement"]
    assert fine["improvement"] > poisson["improvement"] - 0.01
    assert -0.12 < medium["improvement"] < 0.08

    # The paper attributes +5.2% to avoided stale information beyond the
    # polling-time saving; in our model that residual hovers around
    # 0 ± 1% across seeds (see EXPERIMENTS.md) — assert only that the
    # discard optimization does not *hurt* decision quality materially.
    assert fine["improvement_excl_polling"] > -0.02

"""Tests for the figure/table drivers and the figure builtin specs
(small sizes; shape checks live in tests/integration and the benches,
byte pins in test_figure_golden.py)."""

import pytest

from repro.experiments import figures, run_simulation
from repro.workload.synthesis import FINE_GRAIN_SPEC, MEDIUM_GRAIN_SPEC


def test_table1_matches_specs():
    data = figures.table1_traces(n=60_000, seed=1)
    rows = {row["workload"]: row for row in data.table.rows}
    fine = rows[FINE_GRAIN_SPEC.name]
    assert fine["service_mean_ms"] == pytest.approx(22.2, rel=0.05)
    medium = rows[MEDIUM_GRAIN_SPEC.name]
    assert medium["service_mean_ms"] == pytest.approx(28.9, rel=0.05)
    assert medium["service_std_ms"] == pytest.approx(62.9, rel=0.15)
    assert "Table 1" in data.render()


def test_figure2_small():
    data = figures.figure2_inaccuracy(
        loads=(0.5,), workloads=("poisson_exp",),
        delays_normalized=(0.0, 1.0, 50.0),
        n_requests=60_000, n_samples=8_000, seed=2,
    )
    values = data.table.column("inaccuracy")
    assert values[0] == 0.0
    assert values[1] > 0.0
    # At long delays the inaccuracy approaches the Eq. 1 bound.
    bound = data.extras["upperbound"][0.5]
    assert values[2] == pytest.approx(bound, rel=0.2)


def test_figure3_small():
    report = figures.figure3_spec(
        intervals=(0.005, 0.5), loads=(0.9,), workloads=("poisson_exp",),
        n_requests=4000, seed=3,
    ).run(parallel=False)
    # the ideal base row is hidden; one row per broadcast interval
    rows = {row["interval_ms"]: row for row in report.table.rows}
    assert sorted(rows) == [5.0, 500.0]
    # Slow broadcast must be much worse than fast broadcast (Fig 3 shape).
    assert rows[500.0]["normalized_to_ideal"] > 2 * rows[5.0]["normalized_to_ideal"]
    assert rows[5.0]["normalized_to_ideal"] >= 0.9


def test_figure4_small():
    report = figures.figure4_spec(
        loads=(0.9,), workloads=("poisson_exp",), poll_sizes=(2, 8),
        n_requests=4000, seed=4,
    ).run(parallel=False)
    rows = {row["policy"]: row["response_ms"] for row in report.table.rows}
    assert rows["ideal"] < rows["poll-2"] < rows["random"]
    # Simulation model: d=8 does NOT degrade.
    assert rows["poll-8"] <= rows["poll-2"] * 1.1
    assert "Figure 4" in report.render()


def test_figure6_small():
    report = figures.figure6_spec(
        loads=(0.9,), workloads=("fine_grain",), poll_sizes=(2, 8),
        n_requests=4000, seed=5,
    ).run(parallel=False)
    # the prototype model, calibrated by the sweep; ideal is the manager
    assert {r.config.model for r in report.results} == {"prototype"}
    assert all(r.config.full_load_rho is not None for r in report.results)
    assert report.results[-1].config.policy == "manager"
    rows = {row["policy"]: row["response_ms"] for row in report.table.rows}
    # Prototype model: d=8 degrades well below d=2 for fine-grain.
    assert rows["poll-8"] > 1.5 * rows["poll-2"]
    assert "Figure 6" in report.render()


def test_table2_small():
    report = figures.table2_spec(
        workloads=("fine_grain",), n_requests=4000, seed=6,
    ).run(parallel=False)
    [row] = report.table.rows
    assert row["opt_poll_ms"] < row["orig_poll_ms"]
    assert row["improvement"] > 0.0
    assert "Table 2" in report.render()


def test_poll_profile_driver():
    profile, result = figures.poll_profile_section32(n_requests=3000, seed=7)
    assert profile.n_polls == 3000 * 3
    assert 0.0 < profile.frac_over_10ms < 0.25
    assert result.nominal_rho > 0.8
    # the tap only listens: the fold is the one every run goes through
    plain = run_simulation(result.config)
    assert (result.config, result.digest()) == (plain.config, plain.digest())


def test_message_scaling_driver():
    report = figures.message_scaling_spec(
        client_counts=(2, 6), n_requests=2500, seed=8,
    ).run(parallel=False)
    rows = {(r["n_clients"], r["policy"]): r for r in report.table.rows}
    # rows go by client count, then policy
    assert list(rows) == [(2, "broadcast"), (2, "polling"), (6, "broadcast"), (6, "polling")]
    # Broadcast control traffic grows with client count; polling doesn't.
    assert (
        rows[(6, "broadcast")]["control_messages_per_request"]
        > 2.0 * rows[(2, "broadcast")]["control_messages_per_request"]
    )
    polling_2 = rows[(2, "polling")]["control_messages_per_request"]
    polling_6 = rows[(6, "polling")]["control_messages_per_request"]
    assert polling_6 == pytest.approx(polling_2, rel=0.01)


def test_paper_workloads_constant():
    assert set(figures.PAPER_WORKLOADS) == {"medium_grain", "poisson_exp", "fine_grain"}

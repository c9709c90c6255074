"""Tier-2/tier-3 validation harness tests (DESIGN.md §13).

The full tier-2 suite runs from the CLI (``repro fastparity``); these
tests exercise the harness itself on small cheap cells so the comparison
machinery — KS on response times, occupancy distance, mean agreement —
is covered by tier-1 pytest, run tier 3 at its real size (N=1000, ~2 s),
and hold ``repro fastparity`` to printing both tiers and failing on
either.
"""

import functools

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import parity
from repro.experiments.config import SimulationConfig
from repro.experiments.parity import (
    DistributionParityCell,
    DistributionParityReport,
    MeanFieldCheckReport,
    distribution_parity,
    fast_distribution,
    fastpath_suite,
    heap_distribution,
    meanfield_check,
    meanfield_suite,
)


def _small_cells():
    base = SimulationConfig(
        workload="poisson_exp",
        n_servers=8,
        n_requests=2_500,
        seed=0,
        load=0.7,
    )
    return [
        base.with_updates(policy="random"),
        base.with_updates(policy="polling", policy_params={"poll_size": 2}),
    ]


def test_distribution_parity_on_small_cells():
    report = distribution_parity(_small_cells())
    assert report.ok, report.render()
    assert len(report.cells) == 2
    # Random replays the heap engine's arithmetic exactly, so its cell
    # must be pinned at zero distance, not merely under threshold.
    random_cell = report.cells[0]
    assert random_cell.config.policy == "random"
    assert random_cell.ks_response == 0.0
    assert random_cell.occupancy_distance == pytest.approx(0.0, abs=1e-12)


def test_heap_and_fast_distributions_are_comparable_objects():
    config = _small_cells()[0]
    heap_responses, heap_occupancy = heap_distribution(config)
    fast_responses, fast_occupancy = fast_distribution(config)
    assert heap_responses.size == fast_responses.size
    assert heap_occupancy.sum() == pytest.approx(1.0)
    assert fast_occupancy.sum() == pytest.approx(1.0)
    assert np.all(heap_occupancy >= 0) and np.all(fast_occupancy >= 0)


def test_report_flags_failures():
    cell = DistributionParityCell(
        config=_small_cells()[0],
        ks_response=0.5,
        occupancy_distance=0.0,
        mean_rel_error=0.0,
        n_samples=100,
    )
    report = DistributionParityReport(
        cells=[cell], ks_threshold=0.08, occupancy_threshold=0.08, mean_tolerance=0.05
    )
    assert not report.ok
    assert report.failures() == [cell]
    assert "FAIL" in report.render()


def test_fastpath_suite_covers_every_policy_at_two_loads():
    suite = fastpath_suite()
    assert {c.policy for c in suite} == {"random", "polling", "broadcast", "stale_jsq"}
    assert {c.load for c in suite} == {0.5, 0.9}


def test_meanfield_check_random_small_n():
    # Random is d=1: every server is an independent M/M/1, so the
    # mean-field prediction is exact at any N — a cheap cell covers the
    # tier-3 plumbing without the 1000-server suite.
    config = meanfield_suite(n_servers=64, n_requests=60_000)[0]
    assert config.policy == "random"
    report = meanfield_check([config])
    assert isinstance(report, MeanFieldCheckReport)
    assert report.ok, report.render()
    assert "mean-field check" in report.render()


def test_meanfield_suite_configs_are_fast_engine():
    for config in meanfield_suite():
        assert config.engine == "fast"
        assert config.warmup_fraction == 0.25


def test_meanfield_check_default_suite_at_n1000():
    """Tier 3 at the size it is quoted at: polling(d=2) has no exact
    finite-N answer, so N=1000 is where the 5% band means something."""
    report = meanfield_check()
    assert report.ok, report.render()
    assert [(c.config.policy, c.config.n_servers) for c in report.cells] == [
        ("random", 1000), ("polling", 1000),
    ]


TIER_HEADERS = ("distribution parity (fast vs heap): ", "mean-field check (fast path vs N->inf): ")


def test_fastparity_prints_both_tiers(capsys):
    assert main(["fastparity", "--quick"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith(TIER_HEADERS)] == [
        TIER_HEADERS[0] + "OK — 10 configs (KS<=0.08, occupancy<=0.08, mean within 5%)",
        TIER_HEADERS[1] + "OK — 2 cells (tolerance 5%)",
    ]


@pytest.mark.parametrize(
    "check, forced, verdicts",
    [
        ("distribution_parity", {"ks_threshold": 0.0}, ("FAILED", "OK")),
        ("meanfield_check", {"tolerance": 0.0}, ("OK", "FAILED")),
    ],
)
def test_fastparity_exits_nonzero_when_either_tier_fails(monkeypatch, check, forced, verdicts):
    monkeypatch.setattr(parity, check, functools.partial(getattr(parity, check), **forced))
    with pytest.raises(SystemExit) as exit_info:
        main(["fastparity", "--quick"])
    message = str(exit_info.value.code)
    for header, verdict in zip(TIER_HEADERS, verdicts):
        assert header + verdict in message

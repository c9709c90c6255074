"""Tests for the figure drivers that check no paper claim (the claims
are rows of ``benchmarks/claims.py``; byte pins in test_figure_golden.py)."""

from repro.experiments import figures, run_simulation


def test_poll_profile_driver():
    profile, result = figures.poll_profile_section32(n_requests=3000, seed=7)
    assert profile.n_polls == 3000 * 3
    assert 0.0 < profile.frac_over_10ms < 0.25
    assert result.nominal_rho > 0.8
    # the tap only listens: the fold is the one every run goes through
    plain = run_simulation(result.config)
    assert (result.config, result.digest()) == (plain.config, plain.digest())


def test_paper_workloads_constant():
    assert set(figures.PAPER_WORKLOADS) == {"medium_grain", "poisson_exp", "fine_grain"}

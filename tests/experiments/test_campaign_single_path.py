"""Re-fork guard: there is one way to run a campaign.

``repro chaos|resilience|overload|autoscale`` and the paper's sweeps
``repro fig3|fig4|fig6|table2|messages`` are aliases of ``repro
scenario --spec <name>``; a campaign module contributes a spec builder
and a :class:`~repro.experiments.scenario.ReportLayout`, never its own
driver, executor call, archive call, or report class. A second path
would bring back the drift this layout removed (``--oracle`` and
``--export-dir`` honoured by some commands and silently dropped by
others), so growing one fails CI here — in the style of
``tests/live/test_lifecycle_shared.py``.
"""

import inspect

import pytest

from repro import cli
from repro.experiments import autoscale, chaos, figures, overload, scenario

FIGURE_COMMANDS = ("fig3", "fig4", "fig6", "table2", "messages")
CAMPAIGN_COMMANDS = ("chaos", "resilience", "overload", "autoscale", *FIGURE_COMMANDS)
CAMPAIGN_MODULES = (chaos, overload, autoscale)


@pytest.mark.parametrize("name", CAMPAIGN_COMMANDS)
def test_campaign_commands_alias_the_scenario_handler(name):
    assert cli._COMMANDS[name][0] is cli._COMMANDS["scenario"][0]
    assert name in scenario.BUILTIN_SCENARIOS


@pytest.mark.parametrize("name", sorted(scenario.BUILTIN_SCENARIOS))
def test_every_builtin_resolves_to_a_spec_with_a_layout(name):
    spec = scenario.builtin_spec(name, n_requests=100, quick=True)
    assert isinstance(spec, scenario.ScenarioSpec)
    assert isinstance(spec.layout, scenario.ReportLayout)
    spec.validate()


@pytest.mark.parametrize("module", CAMPAIGN_MODULES, ids=lambda m: m.__name__)
def test_campaign_modules_define_no_report_class_or_driver(module):
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ == module.__name__:
            assert not hasattr(cls, "render"), f"{module.__name__}.{name}"
    source = inspect.getsource(module)
    for forbidden in ("parallel_sweep", "run_cells", "save_results", "ResultTable"):
        assert forbidden not in source, f"{module.__name__} references {forbidden}"


def test_figures_run_no_sweep_of_their_own():
    """The paper's sweeps are builtin specs; what is left in ``figures``
    (Table 1, Figure 2, the §3.2 profile) runs no grid, and keeps
    ``ResultTable`` for the first two."""
    source = inspect.getsource(figures)
    for forbidden in ("parallel_sweep", "run_cells", "save_results", "full_load_rho_for"):
        assert forbidden not in source, f"figures references {forbidden}"
    assert "ResultTable" in source
    for name in FIGURE_COMMANDS:
        assert scenario.BUILTIN_SCENARIOS[name].startswith("repro.experiments.figures:")


def test_spec_help_names_every_builtin():
    # written out by hand, so that ``repro --help`` imports no scenario
    help_text = cli._FLAGS["spec"]["help"]
    for name in scenario.BUILTIN_SCENARIOS:
        assert name in help_text, f"--spec help does not name {name!r}"


@pytest.mark.parametrize("name,size", [
    ("fig3", 20_000), ("fig4", 20_000), ("fig6", 15_000),
    ("table2", 25_000), ("messages", 10_000),
])
def test_figure_builtins_default_to_the_publication_size(name, size):
    # ``repro <figure>`` with no size flag leaves the builder's default
    assert cli._COMMANDS[name].sizes[1] is None
    assert scenario.builtin_spec(name).n_requests == size

"""Re-fork guard: there is one way to run a campaign.

``repro chaos|resilience|overload|autoscale`` are aliases of ``repro
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
from repro.experiments import autoscale, chaos, overload, scenario

CAMPAIGN_COMMANDS = ("chaos", "resilience", "overload", "autoscale")
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
    for forbidden in ("run_cells", "save_results", "ResultTable"):
        assert forbidden not in source, f"{module.__name__} references {forbidden}"

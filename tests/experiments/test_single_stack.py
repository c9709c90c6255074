"""Re-fork guard: one simulation stack, one list of optional subsystems.

ISSUE 17 deleted the generator-process island (signals, processes,
resources, an event-trace ring and a second cluster built on them) that
no paper path reached, and folded six hand-copied per-subsystem ladders
into loops over ``experiments.config.SUBSYSTEMS``. Growing either back
fails here — in the style of ``test_campaign_single_path.py``:

- every module under ``src/repro`` is imported by some other module a
  run can reach (or is on a short, reasoned allowlist);
- every subsystem field of ``SimulationConfig`` has exactly one table
  row, and no module branches on such a field by name;
- the strings the loops emit are the ones the ladders emitted (pinned
  from the parent commit), and the scenario's fast-engine check agrees
  with the fast engine's own.

ISSUE 18 took scipy off the path of ``import repro``: a run loads numpy
only, and the functions that need scipy import it where they call it
(three call sites since the mean-field prediction became a closed form).
A module-level scipy import anywhere under ``src/repro`` fails here.
"""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.config import SUBSYSTEMS, SimulationConfig
from repro.experiments.scenario import PolicyAxis, ScenarioError, ScenarioSpec
from repro.sim.fastpath import (
    FastpathUnsupportedError,
    fastpath_violations,
    require_fastpath_supported,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: modules nothing under ``src/`` or ``benchmarks/suite/`` imports, and why
#: each stays
UNREACHED_ALLOWED = {
    "repro.workload.weekly": "the paper's §2 peak-portion methodology",
    "repro.cluster.service": "Figure 1's partition/replica placement, run by "
    "examples/photo_album_cluster.py; ISSUE 18 decided it stays, as the seed "
    "of the parked multi-service item",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> set[str]:
    """Every ``repro`` module a file names: import statements, the
    names ``from package import name`` pulls, and ``module:attr``
    strings resolved through ``importlib``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            located = re.fullmatch(r"(repro(?:\.\w+)+)(?::\w+)?", node.value)
            if located:
                names.add(located.group(1))
    return names


def test_every_module_is_reached_or_allowlisted():
    modules = {_module_name(path): path for path in SRC.rglob("*.py")}
    # package.name -> the submodule the package's __init__ re-exports it
    # from: its ``exports`` table of ``module:attr`` (or bare module) strings
    reexports: dict[str, str] = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                located = re.fullmatch(r"(repro(?:\.\w+)+)(?::(\w+))?", node.value)
                if located and located.group(1) in modules:
                    module, attr = located.groups()
                    reexports[f"{name}.{attr or module.rpartition('.')[2]}"] = module
    importers = [p for p in modules.values() if p.name != "__init__.py"]
    importers += sorted((ROOT / "benchmarks" / "suite").glob("*.py"))
    reached: set[str] = set()
    for path in importers:
        own = _module_name(path) if SRC in path.parents else None
        for name in _imports(path):
            reached.update({name, reexports.get(name, name)} - {own})
    unreached = {
        name
        for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py")
        and name != "repro.cli"
        and name not in reached
    }
    assert unreached == set(UNREACHED_ALLOWED)


def test_every_cli_command_has_a_caller():
    """A command no Makefile target, CI step or README line runs is one
    nobody notices breaking: ISSUE 22 found one with no caller anywhere
    (since deleted) and ``compare`` known to DESIGN.md alone."""
    invoked = (ROOT / "Makefile").read_text() + (ROOT / ".github/workflows/ci.yml").read_text()
    readme = (ROOT / "README.md").read_text()
    orphans = {
        name
        for name in cli._COMMANDS
        if not re.search(rf"repro {re.escape(name)}(?![\w-])", invoked)
        and not re.search(rf"(?:repro |`){re.escape(name)}(?![\w-])", readme)
    }
    assert orphans == set()


#: run in a fresh interpreter: everything a CLI command, a pool worker or a
#: suite workload imports, one default run and one mean-field prediction,
#: then the cold functions behind the three call sites that do need scipy:
#: ``weibull_from_moments`` reaches two, ``half_width`` one
_IMPORT_PROBE = """
import sys
import repro, repro.cli, repro.live, repro.verify
from repro.analysis.meanfield import meanfield_prediction
from repro.experiments import ReplicatedResult, SimulationConfig, run_simulation
from repro.workload import weibull_from_moments

run_simulation(SimulationConfig(n_requests=200))
polling2 = SimulationConfig(policy="polling", policy_params={"poll_size": 2}, engine="fast")
meanfield_prediction(polling2)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(weibull_from_moments(0.05, 0.075).shape)
print(ReplicatedResult(SimulationConfig(), (0.10, 0.11, 0.125), 0.95).half_width)
"""


def test_a_run_imports_numpy_only_and_the_three_lazy_sites_work():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])},
        capture_output=True,
        text=True,
        check=True,
        timeout=240,
    ).stdout.splitlines()
    assert out[0] == "[]"
    # the values the module-level imports produced at the parent (d5f833b)
    assert [float(line) for line in out[1:]] == pytest.approx(
        [0.6847725532334181, 0.031258047396878874], rel=1e-12
    )


def _import_time_nodes(node: ast.AST):
    """Every node that executes when the module is imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


def _imported_packages(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module.split(".")[0]}
    return set()


def test_no_module_imports_scipy_at_import_time():
    offenders = {
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        for node in _import_time_nodes(ast.parse(path.read_text()))
        if "scipy" in _imported_packages(node)
    }
    assert offenders == set()


def test_every_subsystem_field_has_exactly_one_row():
    dict_fields = {
        f.name for f in dataclasses.fields(SimulationConfig) if f.default_factory is dict
    }
    not_subsystems = {
        "policy_params",
        "workload_params",
        "overhead_params",
        "cluster_params",
    }
    assert set(SUBSYSTEMS) == dict_fields - not_subsystems
    assert len({row.attr for row in SUBSYSTEMS.values()}) == len(SUBSYSTEMS)


def test_no_module_branches_on_a_subsystem_field_by_name():
    """The ladders were ``if config.<field>:`` once per subsystem per
    module; a loop over the table reads ``getattr(config, name)``."""
    ladder = re.compile(r"\bconfig\.(%s)\b" % "|".join(SUBSYSTEMS))
    rungs = {
        line.strip()
        for path in SRC.rglob("*.py")
        for line in path.read_text().splitlines()
        if ladder.search(line)
    }
    # run_with_telemetry opts a telemetry-less config in; not a rung
    assert rungs == {"if not config.telemetry:"}


#: one config per subsystem -> (describe(), fastpath_violations()) at the
#: parent commit (9619271), where both were hand-written ladders
PINNED = {
    "chaos_params": (
        {"loss": 0.1},
        "polling() poisson_exp load=90% [simulation] +chaos",
        "chaos_params (fault injection)",
    ),
    "telemetry": (
        {"spans": True},
        "polling() poisson_exp load=90% [simulation]",
        "telemetry (per-request span recording)",
    ),
    "reliability_params": (
        {"hedge_quantile": 0.9},
        "polling() poisson_exp load=90% [simulation] +reliability",
        "reliability_params (timeouts/backoff/hedging)",
    ),
    "overload_params": (
        {"fast_reject": True},
        "polling() poisson_exp load=90% [simulation] +overload",
        "overload_params (admission control)",
    ),
    "dispatcher_params": (
        {"count": 2},
        "polling() poisson_exp load=90% [simulation] +dispatchers",
        "dispatcher_params (dispatcher-tier routing)",
    ),
    "autoscaler_params": (
        {"interval": 0.2},
        "polling() poisson_exp load=90% [simulation] +autoscale",
        "autoscaler_params (closed-loop scaling)",
    ),
    "verify_params": (
        {"enabled": True},
        "polling() poisson_exp load=90% [simulation] +verify",
        "verify_params (inline invariant oracle)",
    ),
}


def test_pins_cover_the_table():
    assert list(PINNED) == list(SUBSYSTEMS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_describe_and_refusal_strings_are_the_parents(name):
    knobs, described, violation = PINNED[name]
    config = SimulationConfig(**{name: knobs})
    assert config.describe() == described
    assert fastpath_violations(config) == [violation]


def test_all_seven_on_reads_as_it_did():
    config = SimulationConfig(
        engine="fast", **{name: knobs for name, (knobs, _, _) in PINNED.items()}
    )
    assert config.describe() == (
        "polling() poisson_exp load=90% [simulation] +chaos +reliability "
        "+overload +dispatchers +autoscale +verify"
    )
    with pytest.raises(FastpathUnsupportedError) as err:
        require_fastpath_supported(config)
    assert str(err.value) == (
        "engine='fast' cannot represent this config; re-run with --engine heap "
        "(or calendar). Unsupported: "
        + "; ".join(violation for _, _, violation in PINNED.values())
    )


#: fast-engine specs the scenario's own rule copy let through while every
#: cell died in a pool worker: (spec kwargs, axis, the knob named)
DRIFTED = [
    ({"config_overrides": {"workers": 2}}, "config_overrides", "workers=2"),
    (
        {"config_overrides": {"server_speeds": [1.0] * 16}},
        "config_overrides",
        "server_speeds",
    ),
    (
        {
            "policies": (
                PolicyAxis(
                    "stale",
                    "stale_jsq",
                    {"update_interval": 0.01, "local_increment": True},
                ),
            )
        },
        "policies",
        "local_increment",
    ),
]


@pytest.mark.parametrize("kwargs, axis, knob", DRIFTED, ids=[d[2] for d in DRIFTED])
def test_fast_engine_drift_is_refused_at_validate_time(kwargs, axis, knob):
    spec = ScenarioSpec(engine="fast", n_requests=100, **kwargs)
    with pytest.raises(ScenarioError, match=re.escape(knob)) as err:
        spec.validate()
    assert err.value.axis == axis


def test_validate_and_the_fast_engine_agree_on_every_cell():
    """A fast-engine spec that validates has no cell the engine refuses."""
    spec = ScenarioSpec(
        engine="fast",
        n_requests=100,
        policies=(
            PolicyAxis("random", "random"),
            PolicyAxis("stale", "stale_jsq", {"update_interval": 0.01}),
        ),
        cluster_params={"record_server_queues": True},
    )
    assert all(fastpath_violations(cell.config) == [] for cell in spec.expand())

"""The lifecycle's subscriber table and what may touch it.

A request lifecycle step tells the optional subsystems about itself by
calling the hooks bound to its lifecycle point, never by testing a
subsystem slot. These tests hold that shape:

- each point's subscribers, for every builtin campaign cell at its
  ``--quick`` size, for all seven subsystems at once, and for a live
  loopback client, match the table written out below, filtered by the
  slots that are installed; every extension campaign installs some
  subsystem, and no cell of the paper's figures installs any;
- each rebindable lifecycle method is rebound by its owner's
  ``install`` alone, and a plain run rebinds none;
- ``system.py`` reads a subsystem slot only where the lifecycle wires
  itself (``_init_lifecycle``, ``install``, ``_wire_points``) and once
  where ``load_workload`` refuses an autoscaler without the availability
  it actuates through, and imports no subsystem module;
- no code outside the ``install`` functions and the constructors
  assigns a subsystem slot, a lifecycle point or a rebindable method, so
  no hook is ever left unbound.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.cluster.system import LIFECYCLE_POINTS, REBINDABLE
from repro.core import make_policy
from repro.experiments.config import SUBSYSTEMS, SimulationConfig
from repro.experiments.runner import assemble, build_cluster
from repro.experiments.scenario import BUILTIN_SCENARIOS, builtin_spec
from repro.live.client import LiveCluster
from repro.live.clock import WallClock
from repro.telemetry import TelemetryCollector
from repro.telemetry.collector import install as install_telemetry

REPO = Path(__file__).resolve().parents[2]
SLOTS = [row.attr for row in SUBSYSTEMS.values()]
#: the builtins that are the paper's own sweeps
PAPER_FIGURES = ("fig3", "fig4", "fig6", "table2", "messages")
SYSTEM_PY = REPO / "src" / "repro" / "cluster" / "system.py"

#: point -> (slot, hook) in call order; "lifecycle" is the lifecycle itself
EXPECTED = {
    "candidates": [
        ("lifecycle", "_members"),
        ("lifecycle", "_skip_rejecter"),
        ("dispatchers", "filter_view"),
        ("reliability", "filter_candidates"),
    ],
    "publish": [("overload", "publishes"), ("autoscaler", "is_active")],
    "arrival": [("oracle", "on_arrival")],
    "dispatch": [("oracle", "on_dispatch"), ("reliability", "on_dispatch")],
    "terminal": [
        ("telemetry", "on_terminal"),
        ("oracle", "on_terminal"),
        ("dispatchers", "on_terminal"),
        ("autoscaler", "on_terminal"),
        ("lifecycle", "_notify_policy"),
        ("reliability", "on_terminal"),
    ],
    "reject": [("dispatchers", "on_server_reject"), ("reliability", "on_reject")],
    "timeout": [("dispatchers", "on_attempt_timeout"), ("reliability", "on_attempt_failure")],
    "server_loss": [("reliability", "on_attempt_failure")],
    "run_end": [("oracle", "on_run_end")],
}

#: (enclosing function, slot) of every subsystem-slot read left in system.py
#: outside the lifecycle's own wiring: the construction-time refusal in
#: ``load_workload``
DECISION_SITES = Counter({("load_workload", "autoscaler"): 1})
#: the functions that wire the lifecycle, so read every slot
_WIRING = {"_init_lifecycle", "install", "_wire_points"}
#: the optional subsystems' modules
_SUBSYSTEM_MODULES = {
    "repro.cluster.availability", "repro.cluster.autoscaler", "repro.cluster.dispatcher",
    "repro.cluster.failures", "repro.cluster.overload", "repro.cluster.reliability",
    "repro.telemetry", "repro.verify",
}

#: one subsystem on, for each owner of a rebindable method
OWNER_CONFIGS = {
    "availability": {"cluster_params": {"availability": True}},
    "overload": {"overload_params": {"sojourn_target": 0.02, "fast_reject": True}},
    "reliability": {"reliability_params": {"breaker_threshold": 4}},
    "dispatchers": {"dispatcher_params": {"count": 2}},
}
ALL_SEVEN = dict(
    cluster_params={"availability": True, "request_timeout": 0.25},
    chaos_params={"loss": 0.01},
    telemetry={"spans": True},
    reliability_params={"hedge_quantile": 0.9, "breaker_threshold": 4},
    overload_params={"sojourn_target": 0.02, "fast_reject": True},
    dispatcher_params={"count": 2},
    autoscaler_params={"min_servers": 4, "interval": 0.2},
    verify_params={"enabled": True},
)


def _subscribers(cluster) -> dict[str, list[tuple[str, str]]]:
    """Each point's bound hooks as (slot, hook) names; a rebound
    lifecycle method is the lifecycle's under its own name."""
    slot_of = {id(getattr(cluster, slot)): slot for slot in SLOTS}
    slot_of[id(cluster)] = "lifecycle"
    rebound = {id(method): name for name, method in _rebound(cluster).items()}

    def name(hook) -> tuple[str, str]:
        if id(hook) in rebound:
            return ("lifecycle", rebound[id(hook)])
        return (slot_of[id(hook.__self__)], hook.__func__.__name__)

    return {
        point: [name(hook) for hook in getattr(cluster, f"_at_{point}")]
        for point in LIFECYCLE_POINTS
    }


def _rebound(cluster) -> dict:
    """The rebindable lifecycle methods ``cluster`` holds in its own
    namespace: the ones an install replaced."""
    return {name: method for name, method in vars(cluster).items() if name in REBINDABLE}


def _expected_for(cluster) -> dict[str, list[tuple[str, str]]]:
    installed = {"lifecycle"} | {
        slot for slot in SLOTS if getattr(cluster, slot) is not None
    }
    return {
        point: [entry for entry in entries if entry[0] in installed]
        for point, entries in EXPECTED.items()
    }


def test_the_table_is_the_pinned_one():
    assert {point: list(entries) for point, entries in LIFECYCLE_POINTS.items()} == EXPECTED


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_quick_cells_bind_the_table(name):
    command = "scenario" if name == "composed" else name
    quick_requests = cli._COMMANDS[command].sizes[0]
    seen_slots = set()
    for cell in builtin_spec(name, quick=True, seed=0, n_requests=quick_requests).expand():
        config = cell.config
        cluster, _ = build_cluster(config)
        assert _subscribers(cluster) == _expected_for(cluster), config.label
        configured = {row.attr for field, row in SUBSYSTEMS.items() if getattr(config, field)}
        installed = {slot for slot in SLOTS if getattr(cluster, slot) is not None}
        assert installed <= configured, config.label
        seen_slots |= installed
    if name in PAPER_FIGURES:
        # the paper's own cells run no optional subsystem
        assert not seen_slots, f"a {name} cell installs {sorted(seen_slots)}"
    else:
        assert seen_slots, f"no {name} cell installs a subsystem"


def test_all_seven_subsystems_bind_every_subscriber_and_method():
    cluster, _ = build_cluster(SimulationConfig(n_servers=8, n_requests=50, **ALL_SEVEN))
    assert _subscribers(cluster) == EXPECTED
    assert set(_rebound(cluster)) == set(REBINDABLE)


def test_a_plain_run_subscribes_the_lifecycle_and_the_policy_only():
    cluster, _ = build_cluster(SimulationConfig(n_requests=20))
    subscribers = _subscribers(cluster)
    assert subscribers.pop("candidates") == [
        ("lifecycle", "_members"), ("lifecycle", "_skip_rejecter")]
    assert subscribers.pop("terminal") == [("lifecycle", "_notify_policy")]
    assert all(not hooks for hooks in subscribers.values())
    assert _rebound(cluster) == {}


@pytest.mark.parametrize("owner", sorted(OWNER_CONFIGS))
def test_each_install_rebinds_the_methods_it_owns(owner):
    assert set(OWNER_CONFIGS) == set(REBINDABLE.values())
    cluster, _ = build_cluster(SimulationConfig(n_requests=20, **OWNER_CONFIGS[owner]))
    assert set(_rebound(cluster)) == {name for name, by in REBINDABLE.items() if by == owner}


def test_a_loopback_live_cluster_binds_the_table():
    cluster = LiveCluster(
        {0: ("127.0.0.1", 9), 1: ("127.0.0.1", 10)},
        make_policy("random"),
        WallClock(),
        request_timeout=0.1,
    )
    assert all(getattr(cluster, slot) is None for slot in SLOTS)
    gaps = services = np.full(4, 0.01)
    assemble(cluster, gaps, services, reliability={"breaker_threshold": 3})
    assert _subscribers(cluster) == _expected_for(cluster)
    install_telemetry(cluster)
    subscribers = _subscribers(cluster)
    assert subscribers == _expected_for(cluster)
    assert subscribers["terminal"][0] == ("telemetry", "on_terminal")
    assert subscribers["dispatch"] == [("reliability", "on_dispatch")]


def test_install_rewires_and_refuses_unknown_slots():
    cluster, _ = build_cluster(SimulationConfig(n_requests=20))
    collector = TelemetryCollector(cluster)
    cluster.install("telemetry", collector)
    assert cluster._at_terminal[0] == collector.on_terminal
    cluster.install("telemetry", None)
    assert cluster._at_terminal == (cluster._notify_policy,)
    with pytest.raises(ValueError, match="unknown subsystem slot"):
        cluster.install("policy", None)
    with pytest.raises(ValueError, match="not a rebindable lifecycle method"):
        cluster.rebind(dispatch=print)


def _slot_reads(tree: ast.AST) -> Counter:
    """(enclosing function, slot) of each read of a subsystem slot on
    any object — ``<x>.<slot>`` or ``getattr(<x>, "<slot>")`` — outside
    the lifecycle's wiring."""
    found: Counter = Counter()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        slot = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            slot = node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            slot = node.args[1].value
        if slot in SLOTS and function not in _WIRING:
            found[function, slot] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_system_py_reads_slots_only_where_it_wires_itself():
    assert _slot_reads(ast.parse(SYSTEM_PY.read_text())) == DECISION_SITES


def test_the_census_sees_a_slot_read():
    tree = ast.parse(
        "def f(self, server):\n"
        "    return self.reliability, server.overload, getattr(self, 'dispatchers')\n"
        "def install(self):\n"
        "    return self.oracle\n"
    )
    assert _slot_reads(tree) == Counter(
        {("f", "reliability"): 1, ("f", "overload"): 1, ("f", "dispatchers"): 1})


def test_system_py_imports_no_subsystem_module():
    imported = set()
    for node in ast.walk(ast.parse(SYSTEM_PY.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {
        module for module in imported
        if any(module == m or module.startswith(f"{m}.") for m in _SUBSYSTEM_MODULES)
    } == set()


#: functions allowed to assign a subsystem slot, a rebindable method or a
#: lifecycle point: the constructors, the lifecycle's own wiring, and
#: ``install`` — the lifecycle's, and each subsystem module's that
#: INSTALL_ORDER names
_ASSIGNERS = {"__init__", "_init_lifecycle", "install", "_wire_points"}


def _slot_assignments(path: Path) -> list[str]:
    """``file:line function`` of each assignment to a subsystem slot, a
    rebindable lifecycle method or a lifecycle point (``_at_<point>``)
    outside the allowed functions:
    ``<x>.<slot> = ...``, ``setattr(<x>, "<slot>", ...)``, and any
    ``setattr(cluster, <name>, ...)``, whose name could be a slot."""
    names = set(SLOTS) | set(REBINDABLE) | {f"_at_{point}" for point in LIFECYCLE_POINTS}
    out = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = False
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            hit = any(isinstance(t, ast.Attribute) and t.attr in names for t in targets)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) > 1
        ):
            obj, name = node.args[:2]
            hit = (isinstance(name, ast.Constant) and name.value in names) or (
                isinstance(obj, ast.Name) and obj.id == "cluster"
            )
        if hit and function not in _ASSIGNERS:
            out.append(f"{path.relative_to(REPO)}:{node.lineno} {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return out


def test_only_install_and_constructors_assign_a_slot():
    paths = [
        path
        for tree in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO / tree).rglob("*.py"))
    ]
    offenders = [where for path in paths for where in _slot_assignments(path)]
    assert offenders == []

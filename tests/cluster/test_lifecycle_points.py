"""The lifecycle's subscriber table and what may touch it.

A request lifecycle step tells the optional subsystems about itself by
calling the hooks bound to its lifecycle point, never by testing a
subsystem slot. These tests hold that shape:

- each point's subscribers, for every builtin campaign cell at its
  ``--quick`` size, for all seven subsystems at once, and for a live
  loopback client, match the table written out below, filtered by the
  slots that are installed; every extension campaign installs some
  subsystem, and no cell of the paper's figures installs any;
- ``system.py`` tests a subsystem slot for ``None`` only at the twelve
  places where the lifecycle acts on what the subsystem returns, and
  once where ``load_workload`` refuses an autoscaler without the
  availability it actuates through;
- no code outside the ``install`` functions and the constructors
  assigns a subsystem slot or a lifecycle point, so no hook is ever left
  unbound.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.cluster.system import LIFECYCLE_POINTS
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

#: (enclosing function, slot) of every subsystem-slot ``None`` test left
#: in system.py: each acts on a value the subsystem returns (a candidate
#: filter, a route, a reselect, a timeout, a backoff, a collision, a
#: backhaul), except the construction-time refusal in ``load_workload``
DECISION_SITES = Counter({
    ("available_servers", "dispatchers"): 1,
    ("available_servers", "reliability"): 1,
    ("selector_agents", "dispatchers"): 1,
    ("selector_for", "dispatchers"): 1,
    ("_arm_attempt_timeout", "reliability"): 1,
    ("_safe_select", "dispatchers"): 1,
    ("reselect_later", "dispatchers"): 1,
    ("_retry", "reliability"): 2,
    ("load_workload", "autoscaler"): 1,
    ("should_publish", "autoscaler"): 1,
    ("_deliver_request", "reliability"): 1,
    ("_on_server_complete", "dispatchers"): 1,
})


def _subscribers(cluster) -> dict[str, list[tuple[str, str]]]:
    """Each point's bound hooks as (slot, hook) names."""
    slot_of = {id(getattr(cluster, slot)): slot for slot in SLOTS}
    slot_of[id(cluster)] = "lifecycle"
    return {
        point: [
            (slot_of[id(hook.__self__)], hook.__func__.__name__)
            for hook in getattr(cluster, f"_at_{point}")
        ]
        for point in LIFECYCLE_POINTS
    }


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


def test_all_seven_subsystems_bind_every_subscriber():
    config = SimulationConfig(
        n_servers=8, n_requests=50,
        cluster_params={"availability": True, "request_timeout": 0.25},
        chaos_params={"loss": 0.01},
        telemetry={"spans": True},
        reliability_params={"hedge_quantile": 0.9, "breaker_threshold": 4},
        overload_params={"sojourn_target": 0.02, "fast_reject": True},
        dispatcher_params={"count": 2},
        autoscaler_params={"min_servers": 4, "interval": 0.2},
        verify_params={"enabled": True},
    )
    cluster, _ = build_cluster(config)
    assert _subscribers(cluster) == EXPECTED


def test_a_plain_run_subscribes_the_policy_only():
    cluster, _ = build_cluster(SimulationConfig(n_requests=20))
    subscribers = _subscribers(cluster)
    assert subscribers.pop("terminal") == [("lifecycle", "_notify_policy")]
    assert all(not hooks for hooks in subscribers.values())


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


def _slot_guards(tree: ast.AST) -> Counter:
    """(enclosing function, slot) of each ``self.<slot> is [not] None``."""
    found: Counter = Counter()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
            and isinstance(node.left, ast.Attribute)
            and isinstance(node.left.value, ast.Name)
            and node.left.value.id == "self"
            and node.left.attr in SLOTS
        ):
            found[function, node.left.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_system_py_tests_slots_only_at_decision_sites():
    assert _slot_guards(ast.parse(SYSTEM_PY.read_text())) == DECISION_SITES


#: functions allowed to assign a subsystem slot or a lifecycle point: the
#: constructors, the lifecycle's own wiring, and ``install`` — the
#: lifecycle's, and each subsystem module's that INSTALL_ORDER names
_ASSIGNERS = {"__init__", "_init_lifecycle", "install", "_wire_points"}


def _slot_assignments(path: Path) -> list[str]:
    """``file:line function`` of each assignment to a subsystem slot or a
    lifecycle point (``_at_<point>``) outside the allowed functions:
    ``<x>.<slot> = ...``, ``setattr(<x>, "<slot>", ...)``, and any
    ``setattr(cluster, <name>, ...)``, whose name could be a slot."""
    names = set(SLOTS) | {f"_at_{point}" for point in LIFECYCLE_POINTS}
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

"""Every debugging ``__repr__`` under ``src/`` runs.

Coverage skips a ``__repr__`` marked ``# pragma: no cover - debugging
aid``, so one that reads a renamed or deleted attribute breaks silently
and raises only when a person prints the object at a prompt or in a
traceback. This test finds every such ``__repr__`` by its marker and
``repr()``s one live instance of each class.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.cluster.request import Request
from repro.experiments.cache import ResultCache
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import build_cluster
from repro.live.client import LiveServerProxy
from repro.live.clock import WallClock
from repro.net.message import Message, MessageKind
from repro.sim.calendar import make_simulator

SRC = Path(__file__).resolve().parents[1] / "src"
MARKER = "# pragma: no cover - debugging aid"

#: every subsystem on, so each subsystem's runtime object exists
ALL_SEVEN = SimulationConfig(
    n_servers=4, n_requests=20,
    cluster_params={"availability": True, "request_timeout": 0.25},
    chaos_params={"loss": 0.01},
    telemetry={"spans": True},
    reliability_params={"hedge_quantile": 0.9, "breaker_threshold": 4},
    overload_params={"sojourn_target": 0.02, "fast_reject": True},
    dispatcher_params={"count": 2},
    autoscaler_params={"min_servers": 2, "interval": 0.2},
    verify_params={"enabled": True},
)


def _marked_reprs() -> set[str]:
    """``module:Class`` of each ``__repr__`` carrying the marker."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "__repr__"
                        and MARKER in lines[item.lineno - 1]
                    ):
                        found.add(f"{module}:{node.name}")
    return found


def test_every_debugging_repr_runs(tmp_path):
    cluster, _ = build_cluster(ALL_SEVEN)
    clock = WallClock()
    try:
        instances = {
            "repro.cluster.system:RequestLifecycle": cluster,
            "repro.cluster.client:ClientNode": cluster.clients[0],
            "repro.cluster.server:ServerNode": cluster.servers[0],
            "repro.cluster.request:Request": Request(0, cluster.clients[0].node_id, 0.01, 0.0),
            "repro.cluster.dispatcher:DispatcherTier": cluster.dispatchers,
            "repro.cluster.dispatcher:Dispatcher": cluster.dispatchers.dispatchers[0],
            "repro.cluster.autoscaler:Autoscaler": cluster.autoscaler,
            "repro.cluster.overload:OverloadController": cluster.servers[0].overload,
            "repro.cluster.reliability:ReliabilityEngine": cluster.reliability,
            "repro.core.base:LoadBalancer": cluster.policy,
            "repro.verify.oracle:InvariantOracle": cluster.oracle,
            "repro.net.faults:NetworkFaults": cluster.network.faults,
            "repro.net.message:Message": Message(MessageKind.POLL, 0, 1, None, 0, 0.0),
            "repro.sim.engine:Simulator": cluster.sim,
            "repro.sim.engine:EventHandle": cluster.sim.after(1.0, print),
            "repro.sim.calendar:CalendarSimulator": make_simulator("calendar"),
            "repro.sim.rng:RngHub": cluster.rng_hub,
            "repro.experiments.executor:SweepExecutor": SweepExecutor(max_workers=1),
            "repro.experiments.cache:ResultCache": ResultCache(tmp_path),
            "repro.live.clock:WallHandle": clock.after(1.0, print),
            "repro.live.client:LiveServerProxy": LiveServerProxy(0, ("127.0.0.1", 9)),
        }
        assert set(instances) == _marked_reprs()
        for name, instance in instances.items():
            method = type(instance).__repr__
            assert f"{method.__module__}:{method.__qualname__}" == f"{name}.__repr__"
            assert repr(instance).startswith("<"), name
    finally:
        clock.close()

"""Import what runs: a package ``__init__`` names its exports and never
imports them (:func:`repro.exports` resolves each on first access), so a
run loads the modules it uses and no others.

Every probe that counts modules runs in a fresh interpreter: this test
process has long since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.registry import available_policies, make_policy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts) for path in SRC.rglob("__init__.py")
)


def _fresh(script: str) -> list[str]:
    """The stdout lines of ``script`` run in a new interpreter."""
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])},
        capture_output=True,
        text=True,
        check=True,
        timeout=240,
    ).stdout.splitlines()


def _loaded_after(statements: str) -> set[str]:
    out = _fresh(f"import sys\n{statements}\nprint(*sorted(sys.modules))")
    return set(out[-1].split())


def test_the_event_loop_imports_alone():
    loaded = _loaded_after("import repro.sim.engine")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro.sim", "repro.sim.engine"
    }


#: modules only an optional path uses
_NOT_ON_A_DEFAULT_RUN = {
    *(f"repro.cluster.{name}" for name in
      ("failures", "reliability", "overload", "dispatcher", "autoscaler")),
    "repro.net.faults", "repro.telemetry", "repro.verify", "repro.live",
    *(f"repro.experiments.{name}" for name in
      ("scenario", "parity", "figures", "executor", "replication")),
    "repro.workload.replay",
    "concurrent.futures", "multiprocessing", "socket", "asyncio",
    "json",  # SimulationResult.digest() imports it when called
}


def test_a_default_run_loads_no_optional_path():
    loaded = _loaded_after(
        "from repro.experiments import SimulationConfig, run_simulation\n"
        "run_simulation(SimulationConfig(n_requests=200))"
    )
    assert "repro.cluster.system" in loaded
    assert loaded & _NOT_ON_A_DEFAULT_RUN == set()


#: the exact engines' modules, and what only they or an optional path use
_NOT_ON_A_FAST_RUN = {
    *(f"repro.cluster.{name}" for name in
      ("system", "server", "client", "request", "availability")),
    "repro.net.transport", "repro.net.message",
    "repro.sim.engine", "repro.sim.calendar", "repro.sim.monitor",
    "numpy.ma",
}


def test_a_fast_engine_run_loads_no_exact_engine():
    loaded = _loaded_after(
        "from repro.experiments import SimulationConfig, run_simulation\n"
        "run_simulation(SimulationConfig(policy='polling', policy_params={'poll_size': 2},"
        " engine='fast', n_servers=50, n_requests=2000))"
    )
    assert "repro.sim.fastpath" in loaded
    assert loaded & _NOT_ON_A_FAST_RUN == set()
    assert {m for m in loaded if m.startswith(("repro.prototype", "repro.telemetry"))} == set()


#: what the live runtime's old asyncio loop brought in
_NOT_ON_A_LIVE_RUN = {"asyncio", "concurrent.futures", "ssl"}


def test_the_live_runtime_loads_no_asyncio():
    assert _loaded_after("import repro.live.harness") & _NOT_ON_A_LIVE_RUN == set()
    # the live_loopback suite workload's config, at its smallest size
    loaded = _loaded_after(
        "from repro.live.harness import LiveRunConfig, run_loopback\n"
        "result = run_loopback(LiveRunConfig(policy='polling', policy_params={'poll_size': 2},"
        " workload='poisson_deterministic', workload_params={'mean_service': 0.005},"
        " load=0.125, n_servers=4, n_requests=30, mode='sleep', poll_spin=0.0))\n"
        "assert result.summary['n_failed'] == 0"
    )
    assert "repro.live.clock" in loaded
    assert loaded & _NOT_ON_A_LIVE_RUN == set()


_POLICY_PARAMS = {"broadcast": {"mean_interval": 0.1}, "stale_jsq": {"update_interval": 0.1}}


@pytest.mark.parametrize("name", available_policies())
def test_make_policy_loads_that_policy_module_alone(name):
    params = _POLICY_PARAMS.get(name, {})
    loaded = _loaded_after(
        f"from repro.core.registry import make_policy\nmake_policy({name!r}, **{params!r})"
    )
    policy_modules = {m for m in loaded if m.startswith("repro.core.")}
    assert policy_modules - {"repro.core.base", "repro.core.registry"} == {
        type(make_policy(name, **params)).__module__
    }


def test_a_run_summary_loads_no_numpy_ma():
    loaded = _loaded_after(
        "from repro.cluster import ClusterMetrics\n"
        "metrics = ClusterMetrics(3)\n"
        "metrics.response_time[:] = [0.3, 0.1, 0.2]\n"
        "assert metrics.summary(0.0)['p50_response_time'] == 0.2"
    )
    assert "numpy" in loaded
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("argv", [["--help"], ["fig3", "--budget", "5"]])
def test_cli_help_and_usage_errors_load_no_cluster(argv):
    loaded = _loaded_after(
        "from repro import cli\n"
        f"try:\n    cli.main({argv!r})\nexcept SystemExit:\n    pass"
    )
    assert "repro.cli" in loaded
    assert {m for m in loaded if m.startswith("repro.cluster")} == set()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = __import__(package, fromlist=["__all__"])
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in dir(module)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        module.nosuch


def test_figures_is_the_submodule():
    from repro.experiments import figures

    assert figures.__name__ == "repro.experiments.figures"


def test_no_package_init_imports_a_submodule():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in SRC.rglob("*.py")
    }
    offenders = []
    for path in SRC.rglob("__init__.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                names = [base] if base != "repro" else [
                    f"repro.{alias.name}" for alias in node.names
                ]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name.startswith(".") or name in modules - {"repro"}
            ]
    assert offenders == []


_POOL_PROBE = """
import sys
from repro.experiments import SweepExecutor, composed_spec

def repro_modules():
    return {m for m in sys.modules if m.startswith("repro")}

configs = [cell.config for cell in composed_spec(n_requests=200, quick=True).expand()]
with SweepExecutor(max_workers=1) as executor:
    executor.sweep(configs)
    worker = executor._pool.submit(repro_modules).result()
print(len(configs), *sorted(worker - repro_modules()))
"""


def test_a_pool_worker_compiles_nothing_after_fork():
    """Expanding a spec validates every cell, which imports each
    subsystem's owner and builds each workload in the parent, so a
    worker forked afterwards compiles no module of its own."""
    n_cells, *new = _fresh(_POOL_PROBE)[-1].split()
    assert int(n_cells) > 1
    assert new == []

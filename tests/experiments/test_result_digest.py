"""One definition of "the same run": :meth:`SimulationResult.digest`.

The digest is sha256 over the canonical JSON of every outcome field —
every field but ``config`` (how the run was asked for) and
``wall_seconds`` (how long it took). It is stricter than ``==`` on
purpose: ``-0.0`` and ``0.0``, or ``1`` and ``1.0``, are different
bytes, so a run that moves a sign or a type has moved. NaN encodes as
``NaN`` and matches NaN (a policy with no polls reports
``mean_poll_time = nan`` on every engine).

Every "is this the same run?" check in ``src/`` and ``tests/`` calls it;
the AST guard at the bottom keeps a seventh hand-written comparison
from coming back.
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from repro.experiments import SimulationConfig, run_simulation

ROOT = Path(__file__).resolve().parents[2]

#: the sixteen outcome fields, spelled out: a field added to
#: SimulationResult must be placed here or beside config/wall_seconds
OUTCOME_FIELDS = (
    "mean_response_time",
    "p50_response_time",
    "p90_response_time",
    "p99_response_time",
    "mean_poll_time",
    "n_measured",
    "n_failed",
    "nominal_rho",
    "events_executed",
    "message_counts",
    "policy_counters",
    "stolen_cpu",
    "server_counts",
    "p95_response_time",
    "chaos_counters",
    "telemetry_summary",
)


@pytest.fixture(scope="module")
def result():
    return run_simulation(
        SimulationConfig(
            policy="polling", policy_params={"poll_size": 2}, n_servers=4,
            n_requests=200, seed=3,
        )
    )


def _perturbed(value):
    if isinstance(value, float):
        return 0.0 if math.isnan(value) else value + 1.0
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        return {**value, "perturbed": 1}
    return (*value, 1)


def test_outcome_is_every_field_but_config_and_wall_seconds(result):
    assert set(vars(result)) - {"config", "wall_seconds"} == set(OUTCOME_FIELDS)
    assert set(result.outcome()) == set(OUTCOME_FIELDS)


@pytest.mark.parametrize("name", OUTCOME_FIELDS)
def test_perturbing_any_outcome_field_changes_the_digest(result, name):
    moved = dataclasses.replace(result, **{name: _perturbed(getattr(result, name))})
    assert moved.digest() != result.digest()


def test_config_and_wall_seconds_leave_the_digest_alone(result):
    other = dataclasses.replace(
        result,
        config=result.config.with_updates(engine="calendar", label="elsewhere"),
        wall_seconds=result.wall_seconds + 60.0,
    )
    assert other.digest() == result.digest()


def test_nan_matches_nan(result):
    a = dataclasses.replace(result, mean_poll_time=float("nan"))
    b = dataclasses.replace(result, mean_poll_time=-math.nan)
    assert a.digest() == b.digest()
    assert a.digest() != dataclasses.replace(result, mean_poll_time=0.0).digest()


@pytest.mark.parametrize(
    "name,left,right",
    [
        ("stolen_cpu", 0.0, -0.0),
        ("stolen_cpu", 1, 1.0),
        ("n_failed", 1, 1.0),
        ("message_counts", {"poll": 1}, {"poll": 1.0}),
        ("chaos_counters", {"x": 0.0}, {"x": -0.0}),
    ],
)
def test_stricter_than_equality_on_sign_and_type(result, name, left, right):
    assert left == right  # what a field-by-field == would accept
    a = dataclasses.replace(result, **{name: left})
    b = dataclasses.replace(result, **{name: right})
    assert a.digest() != b.digest()


# ----------------------------------------------------------------------
# guard: no seventh definition
# ----------------------------------------------------------------------

#: modules that hash run output some other way, and why each may.
#: ``benchmarks/suite/workloads.py::result_fingerprint`` (a summary-field
#: subset) also stays: it sits under the benchmark's own paths, which
#: change only together with the benchmark (ROADMAP item 4).
ALLOWED = {
    "tests/sim/golden_fastpath.py": "hashes a FastpathRun's per-request "
    "arrays, which no SimulationResult holds",
    "tests/integration/test_lifecycle_bytes.py": "pins the archive record and "
    "the telemetry export bytes: a serialisation contract, not run identity",
    "tests/experiments/test_serialized_bytes.py": "pins archive and "
    "config_key bytes against the asdict reference: a serialisation contract",
}

_WALKS = {"asdict", "astuple", "fields", "vars"}


def _name(node) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_fields_of_result(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and _name(node.func) == "fields"
        and any(_name(arg) == "SimulationResult" for arg in node.args)
    )


def _reads_result_fields(function) -> bool:
    """A field walk (``asdict``, ``fields``, ``getattr`` by a computed
    name) or a read of an outcome field by attribute."""
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr in OUTCOME_FIELDS:
            return True
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name in _WALKS:
                return True
            if name == "getattr" and not isinstance(node.args[1], ast.Constant):
                return True
    return False


def _hashes(function) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and _name(node.func.value) == "hashlib"
        for node in ast.walk(function)
    )


def _definitions(source: str, where: str) -> list[str]:
    tree = ast.parse(source)
    found = [
        f"{where}:{node.lineno} a fields() walk of SimulationResult"
        for node in ast.walk(tree)
        if _is_fields_of_result(node)
    ]
    found += [
        f"{where}:{node.lineno} {node.name} hashes result fields"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _hashes(node)
        and _reads_result_fields(node)
    ]
    return found


def test_no_module_but_the_runner_defines_the_same_run():
    offenders = []
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            if where == "src/repro/experiments/runner.py" or where in ALLOWED:
                continue
            offenders += _definitions(path.read_text(), where)
    assert offenders == []


def test_every_allowlisted_module_exists_and_still_needs_it():
    for where in ALLOWED:
        assert _definitions((ROOT / where).read_text(), where), where


@pytest.mark.parametrize(
    "snippet",
    [
        "names = [f.name for f in dataclasses.fields( SimulationResult )]",
        "def fp(result):\n"
        "    pairs = [(n, getattr(result, n)) for n in NAMES]\n"
        "    return hashlib.sha256(repr(pairs).encode()).hexdigest()",
        "def fp(result):\n"
        "    return hashlib.sha256(repr(asdict(result)).encode()).hexdigest()",
        "def fp(r):\n"
        "    return hashlib.sha256(repr((r.mean_response_time, r.n_failed)).encode())",
    ],
)
def test_the_guard_sees_a_hand_written_definition(snippet):
    assert _definitions(snippet, "snippet")

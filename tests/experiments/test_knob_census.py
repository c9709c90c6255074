"""Every knob has a caller: the config surface is what the experiments vary.

Builds every config the repository's own producers emit — the five
builtin campaigns (quick and full), the parity suites, the fuzz sampler
and the benchmark suite's workloads — and reads
the config-dict literals of the examples, the benchmark harnesses and the
docs' Python and spec examples. A ``param_keys`` knob that none of them
ever sets runs at its default everywhere: it is a dimension no test or
benchmark covers in combination, and belongs in a module constant.

Knobs are counted per config field, never by name: ``ewma_alpha``,
``interval`` and ``breaker_*`` each belong to several owners, which is
how ``AutoscalerPolicy.ewma_alpha`` hid behind ``OverloadPolicy``'s. A
knob a builder writes at its default value counts as set (dropping it
would move that campaign's cache keys and goldens).
"""

import ast
import re
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.config import SUBSYSTEMS, SimulationConfig, param_keys
from repro.experiments.parity import fastpath_suite, meanfield_suite, parity_suite
from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    ModeAxis,
    ScenarioError,
    ScenarioSpec,
    builtin_spec,
    parse_yaml_lite,
    spec_from_dict,
)
from repro.verify.fuzz import sample_case

ROOT = Path(__file__).resolve().parents[2]

#: the config fields whose dict keys are knobs
FIELDS = ("cluster_params", "overhead_params", *SUBSYSTEMS)

#: knobs no producer sets that stay knobs, and why
ALLOWED_UNSET = {
    ("telemetry", "max_spans"): "its spans_dropped count is in the exported "
    "accounting.json and in repro trace's output",
    **{
        ("overhead_params", key): "the overhead_params field is in every golden "
        "and every cache key"
        for key in (
            "poll_cpu_cost",
            "poll_delay",
            "poll_recv_cost",
            "poll_send_cost",
            "request_cpu_overhead",
        )
    },
    ("cluster_params", "record_server_queues"): "set by "
    "parity.heap_distribution, which no producer exposes",
}

#: knobs that became module constants; naming one must fail loudly
REMOVED = [
    ("reliability_params", "backoff_mult"),
    ("reliability_params", "backoff_cap"),
    ("reliability_params", "backoff_jitter"),
    ("reliability_params", "retry_budget_refill"),
    ("reliability_params", "hedge_min_samples"),
    ("reliability_params", "hedge_window"),
    ("chaos_params", "straggle_frac"),
    ("chaos_params", "partition_frac"),
    ("chaos_params", "storm_frac"),
    ("chaos_params", "dispatcher_partition_frac"),
    ("chaos_params", "dispatcher_partitions"),
    ("dispatcher_params", "admit_interval"),
    ("dispatcher_params", "admit_ewma_alpha"),
    ("autoscaler_params", "ewma_alpha"),
    ("cluster_params", "reselect_delay"),
]


def _suite_configs():
    """The benchmark suite's simulated cells and the live cell's baseline."""
    suite = str(ROOT / "benchmarks" / "suite")
    sys.path.insert(0, suite)
    try:
        import workloads
    finally:
        sys.path.remove(suite)
    for cls in workloads.BY_NAME.values():
        workload = cls(seed=0)
        if isinstance(workload, workloads.CellWorkload):
            yield from (config for _, config in workload.cells(1.0))
    yield workloads.LiveLoopback(seed=0).config(1.0).sim_config()


def _built_configs():
    for name in BUILTIN_SCENARIOS:
        for quick in (False, True):
            yield from (cell.config for cell in builtin_spec(name, quick=quick).expand())
    yield from parity_suite()
    yield from fastpath_suite()
    yield from meanfield_suite()
    for case in range(100):  # the budget `make fuzz-smoke` runs
        yield SimulationConfig(**sample_case(0, case)["config"])
    yield from _suite_configs()


def _doc_blocks(language: str):
    for path in (ROOT / "README.md", ROOT / "EXPERIMENTS.md", *(ROOT / "docs").glob("*.md")):
        for block in re.findall(rf"```{language}\n(.*?)```", path.read_text(), re.S):
            yield path, textwrap.dedent(block)


def _literal_knobs():
    """``(field, key)`` of every config-dict literal passed by keyword
    (``SimulationConfig(...)``, ``with_updates(...)``, ``replace(...)``)
    in the examples, the benchmarks and the docs' Python blocks."""
    sources = [
        (path, path.read_text())
        for folder in ("examples", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    sources += list(_doc_blocks("python"))
    for path, source in sources:
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg in FIELDS and isinstance(keyword.value, ast.Dict):
                    for key in keyword.value.keys:
                        if isinstance(key, ast.Constant):
                            yield keyword.arg, key.value


def _spec_example_configs():
    """The docs' spec-file examples, expanded without reading their
    trace files (the examples pin a digest)."""
    for _, block in _doc_blocks("yaml"):
        yield from (cell.config for cell in spec_from_dict(parse_yaml_lite(block))._cells())


@pytest.fixture(scope="module")
def set_knobs():
    knobs = set(_literal_knobs())
    for config in (*_built_configs(), *_spec_example_configs()):
        knobs.update((field, key) for field in FIELDS for key in getattr(config, field))
    return knobs


def test_every_knob_is_set_by_some_producer(set_knobs):
    every = {(field, key) for field in FIELDS for key in param_keys(field)}
    unset = sorted(every - set_knobs - set(ALLOWED_UNSET))
    assert not unset, f"no producer sets {unset}: make them module constants"


def test_allowlisted_knobs_are_really_unset(set_knobs):
    """An allowlist entry a producer starts setting is stale: drop it."""
    assert sorted(set(ALLOWED_UNSET) & set_knobs) == []
    assert set(ALLOWED_UNSET) <= {(f, k) for f in FIELDS for k in param_keys(f)}


@pytest.mark.parametrize("field, key", REMOVED, ids=[f"{f}.{k}" for f, k in REMOVED])
def test_a_removed_knob_fails_loudly(field, key):
    assert key not in param_keys(field)
    with pytest.raises(ValueError, match=key):
        SimulationConfig(**{field: {key: 1.0}})
    # ... and so does a spec naming it, at validate time
    mode = SUBSYSTEMS[field].mode if field in SUBSYSTEMS else ""
    if mode:
        spec = ScenarioSpec(modes=(ModeAxis("m", **{mode: {key: 1.0}}),))
    elif field == "chaos_params":
        spec = spec_from_dict({"faults": [{"label": "f", "chaos": {key: 1.0}}]})
    else:
        spec = ScenarioSpec(cluster_params={key: 1.0})
    with pytest.raises(ScenarioError, match=key):
        spec.validate()

"""Experiment harness: configs, runners, result tables, figure drivers.

The benches under ``benchmarks/`` are thin wrappers over
:mod:`~repro.experiments.figures`, which regenerates every table and
figure of the paper's evaluation:

- :func:`~repro.experiments.figures.table1_traces`
- :func:`~repro.experiments.figures.figure2_inaccuracy`
- :func:`~repro.experiments.figures.figure3_broadcast`
- :func:`~repro.experiments.figures.figure4_pollsize` (simulation model)
- :func:`~repro.experiments.figures.figure6_pollsize` (prototype model)
- :func:`~repro.experiments.figures.table2_discard`
- :func:`~repro.experiments.figures.poll_profile_section32`
- :func:`~repro.experiments.figures.message_scaling_section24`

Everything past the paper — chaos, resilience, overload, autoscale, the
composed grid, spec files — is a :class:`ScenarioSpec`: a builder
(:func:`chaos_scenario_spec`, :func:`resilience_scenario_spec`,
:func:`overload_scenario_spec`,
:func:`~repro.experiments.autoscale.autoscale_scenario_spec`,
:func:`composed_spec`, or :func:`load_spec`) returns the grid plus its
:class:`ReportLayout`, and ``spec.run(...)`` is the one way to execute
it and get the one :class:`ScenarioReport`. :func:`builtin_spec`
resolves the names ``repro scenario --spec`` accepts.
"""

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    SimulationResult,
    build_cluster,
    parallel_sweep,
    run_simulation,
    run_with_telemetry,
)
from repro.experiments.results import ResultTable
from repro.experiments.report import format_table, staleness_response_table
from repro.experiments.replication import (
    ReplicatedResult,
    compare_policies,
    replicate,
)
from repro.experiments.io import (
    load_attempts_jsonl,
    load_results,
    load_spans_jsonl,
    save_results,
    save_telemetry,
    validate_telemetry_dir,
)
from repro.experiments.cache import ResultCache, config_key, default_cache_dir
from repro.experiments.executor import SweepExecutor, SweepStats
from repro.experiments.parity import EngineParityReport, engine_parity, parity_suite
from repro.experiments.chaos import (
    NAIVE_VS_HARDENED,
    chaos_cluster_params,
    chaos_params_for,
    chaos_scenario_spec,
    hardened_reliability_params,
    resilience_scenario_spec,
)
from repro.experiments.overload import (
    STATIC_VS_ADAPTIVE,
    overload_cluster_params,
    overload_control_params,
    overload_scenario_spec,
)
from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    FaultAxis,
    ModeAxis,
    PolicyAxis,
    ReportLayout,
    ScaleAxis,
    ScenarioCell,
    ScenarioError,
    ScenarioReport,
    ScenarioSpec,
    WorkloadAxis,
    builtin_spec,
    composed_spec,
    load_spec,
    spec_from_dict,
)
from repro.experiments import figures, regression

__all__ = [
    "BUILTIN_SCENARIOS",
    "EngineParityReport",
    "FaultAxis",
    "ModeAxis",
    "NAIVE_VS_HARDENED",
    "PolicyAxis",
    "ReplicatedResult",
    "ReportLayout",
    "STATIC_VS_ADAPTIVE",
    "ResultCache",
    "ResultTable",
    "ScaleAxis",
    "ScenarioCell",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioSpec",
    "SimulationConfig",
    "SimulationResult",
    "SweepExecutor",
    "SweepStats",
    "WorkloadAxis",
    "build_cluster",
    "builtin_spec",
    "chaos_cluster_params",
    "chaos_params_for",
    "chaos_scenario_spec",
    "compare_policies",
    "composed_spec",
    "config_key",
    "default_cache_dir",
    "engine_parity",
    "figures",
    "format_table",
    "hardened_reliability_params",
    "load_spec",
    "load_attempts_jsonl",
    "load_results",
    "load_spans_jsonl",
    "overload_cluster_params",
    "overload_control_params",
    "overload_scenario_spec",
    "parallel_sweep",
    "parity_suite",
    "regression",
    "replicate",
    "resilience_scenario_spec",
    "run_simulation",
    "run_with_telemetry",
    "save_results",
    "save_telemetry",
    "spec_from_dict",
    "staleness_response_table",
    "validate_telemetry_dir",
]

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

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.experiments.scenario:BUILTIN_SCENARIOS",
    "repro.experiments.parity:EngineParityReport",
    "repro.experiments.scenario:FaultAxis",
    "repro.experiments.scenario:ModeAxis",
    "repro.experiments.chaos:NAIVE_VS_HARDENED",
    "repro.experiments.scenario:PolicyAxis",
    "repro.experiments.replication:ReplicatedResult",
    "repro.experiments.scenario:ReportLayout",
    "repro.experiments.overload:STATIC_VS_ADAPTIVE",
    "repro.experiments.cache:ResultCache",
    "repro.experiments.results:ResultTable",
    "repro.experiments.scenario:ScaleAxis",
    "repro.experiments.scenario:ScenarioCell",
    "repro.experiments.scenario:ScenarioError",
    "repro.experiments.scenario:ScenarioReport",
    "repro.experiments.scenario:ScenarioSpec",
    "repro.experiments.config:SimulationConfig",
    "repro.experiments.runner:SimulationResult",
    "repro.experiments.executor:SweepExecutor",
    "repro.experiments.executor:SweepStats",
    "repro.experiments.scenario:WorkloadAxis",
    "repro.experiments.runner:build_cluster",
    "repro.experiments.scenario:builtin_spec",
    "repro.experiments.chaos:chaos_cluster_params",
    "repro.experiments.chaos:chaos_params_for",
    "repro.experiments.chaos:chaos_scenario_spec",
    "repro.experiments.replication:compare_policies",
    "repro.experiments.scenario:composed_spec",
    "repro.experiments.cache:config_key",
    "repro.experiments.cache:default_cache_dir",
    "repro.experiments.parity:engine_parity",
    "repro.experiments.figures",
    "repro.experiments.report:format_table",
    "repro.experiments.chaos:hardened_reliability_params",
    "repro.experiments.scenario:load_spec",
    "repro.experiments.io:load_attempts_jsonl",
    "repro.experiments.io:load_results",
    "repro.experiments.io:load_spans_jsonl",
    "repro.experiments.overload:overload_cluster_params",
    "repro.experiments.overload:overload_control_params",
    "repro.experiments.overload:overload_scenario_spec",
    "repro.experiments.runner:parallel_sweep",
    "repro.experiments.parity:parity_suite",
    "repro.experiments.replication:replicate",
    "repro.experiments.chaos:resilience_scenario_spec",
    "repro.experiments.runner:run_simulation",
    "repro.experiments.runner:run_with_telemetry",
    "repro.experiments.io:save_results",
    "repro.experiments.io:save_telemetry",
    "repro.experiments.scenario:spec_from_dict",
    "repro.experiments.report:staleness_response_table",
    "repro.experiments.io:validate_telemetry_dir",
)

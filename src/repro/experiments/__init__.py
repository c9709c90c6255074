"""Experiment harness: configs, runners, result tables, scenario specs.

Every sweep is a :class:`ScenarioSpec`: a builder returns the grid plus
its :class:`ReportLayout`, and ``spec.run(...)`` is the one way to
execute it and get the one :class:`ScenarioReport`. The builtins, named
as ``repro scenario --spec`` accepts them and resolved by
:func:`builtin_spec`, are the paper's sweeps —
:func:`~repro.experiments.figures.figure3_spec` (``fig3``),
:func:`~repro.experiments.figures.figure4_spec` (``fig4``, simulation
model), :func:`~repro.experiments.figures.figure6_spec` (``fig6``,
prototype model), :func:`~repro.experiments.figures.table2_spec`
(``table2``), :func:`~repro.experiments.figures.message_scaling_spec`
(``messages``) — and everything past the paper:
:func:`chaos_scenario_spec`, :func:`resilience_scenario_spec`,
:func:`overload_scenario_spec`,
:func:`~repro.experiments.autoscale.autoscale_scenario_spec` and
:func:`composed_spec`; :func:`load_spec` reads a spec file.

What is not a sweep stays a function in
:mod:`~repro.experiments.figures`:
:func:`~repro.experiments.figures.table1_traces`,
:func:`~repro.experiments.figures.figure2_inaccuracy` and
:func:`~repro.experiments.figures.poll_profile_section32`. The benches
under ``benchmarks/`` are thin wrappers over all of them.
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
    "repro.experiments.runner:assemble",
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

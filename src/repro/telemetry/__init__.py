"""Cluster-wide request-lifecycle telemetry.

This subpackage answers the *why* questions the end-of-run aggregates
cannot: why did a policy flock every client to one server (stale
broadcast tables, §2.2), what information age did each dispatch decision
act on, and how did queues, utilization, and message traffic evolve
over a run.

Three layers, all opt-in and all zero-overhead when disabled:

- :class:`~repro.telemetry.spans.RequestSpan` — one per-request
  lifecycle record (created → selected → enqueued → service start →
  completed → response) annotated with the policy's *perceived load*
  for the chosen server and the *staleness* of that observation at
  decision time.
- :class:`~repro.telemetry.collector.TelemetryCollector` — the run-time
  hook object a :class:`~repro.cluster.system.ServiceCluster` carries
  (``cluster.telemetry``); it installs step recorders, captures spans
  at request completion, and builds the final
  :class:`~repro.telemetry.collector.TelemetryReport`.
- :func:`~repro.telemetry.sampler.sample_series` — the periodic
  time-series sampler: queue length, utilization, in-flight messages,
  and fault counters evaluated on a uniform grid, built on
  :class:`~repro.sim.monitor.StepRecorder` breakpoints so the event
  loop never executes a sampling event (see DESIGN.md §10).

Enable via ``SimulationConfig(telemetry={...})`` or the ``repro trace``
CLI command; export via :func:`repro.experiments.io.save_telemetry`.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.telemetry.spans:ATTEMPT_FIELDS",
    "repro.telemetry.spans:AttemptRecord",
    "repro.telemetry.spans:RequestSpan",
    "repro.telemetry.spans:SPAN_FIELDS",
    "repro.telemetry.collector:TelemetryCollector",
    "repro.telemetry.collector:TelemetryReport",
    "repro.telemetry.sampler:sample_series",
)

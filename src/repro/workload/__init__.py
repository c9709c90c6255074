"""Workload generation: distributions, arrival processes, traces.

The paper evaluates three workloads (§1.1):

- **Poisson/Exp** — Poisson arrivals, exponential service times (mean
  50 ms in the multi-server experiments);
- **Fine-Grain trace** — a Teoma search-engine internal service
  (query-word translation), mean service time 22.2 ms, near-deterministic;
- **Medium-Grain trace** — a second Teoma service (page-description
  translation), mean service time 28.9 ms with heavy-tailed variability.

The real traces are proprietary; :mod:`~repro.workload.synthesis`
generates synthetic traces fitted to the published Table 1 moments (see
DESIGN.md §5 for the OCR-disambiguation of those numbers). A user's own
timestamped trace enters through :mod:`~repro.workload.replay`
(``replay_file``: CSV/JSONL, content-addressed in the result cache).

:func:`~repro.workload.workloads.request_stream` is the one recipe that
turns a named workload into a run's arrays: draw from the seed's
``workload`` substream, rescale the gaps to the target per-server load.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.workload.arrivals:ArrivalProcess",
    "repro.workload.distributions:Deterministic",
    "repro.workload.distributions:Distribution",
    "repro.workload.weekly:DiurnalProfile",
    "repro.workload.distributions:Exponential",
    "repro.workload.synthesis:FINE_GRAIN_SPEC",
    "repro.workload.distributions:Lognormal",
    "repro.workload.arrivals:MarkovModulatedPoisson",
    "repro.workload.synthesis:MEDIUM_GRAIN_SPEC",
    "repro.workload.distributions:Pareto",
    "repro.workload.arrivals:PoissonProcess",
    "repro.workload.arrivals:RenewalProcess",
    "repro.workload.traces:Trace",
    "repro.workload.synthesis:TraceSpec",
    "repro.workload.traces:TraceStats",
    "repro.workload.distributions:Uniform",
    "repro.workload.distributions:Weibull",
    "repro.workload.workloads:Workload",
    "repro.workload.workloads:available_workloads",
    "repro.workload.replay:bursty_trace",
    "repro.workload.replay:diurnal_trace",
    "repro.workload.weekly:extract_peak_portion",
    "repro.workload.replay:file_trace",
    "repro.workload.replay:live_trace",
    "repro.workload.replay:load_arrivals",
    "repro.workload.replay:replay_file_params",
    "repro.workload.replay:save_arrivals",
    "repro.workload.weekly:synthesize_weekly_trace",
    "repro.workload.replay:trace_digest",
    "repro.workload.distributions:lognormal_from_moments",
    "repro.workload.workloads:make_workload",
    "repro.workload.distributions:pareto_from_moments",
    "repro.workload.workloads:request_stream",
    "repro.workload.synthesis:synthesize_trace",
    "repro.workload.distributions:weibull_from_moments",
)

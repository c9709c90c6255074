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

from repro.workload.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    Lognormal,
    Pareto,
    Uniform,
    Weibull,
    lognormal_from_moments,
    pareto_from_moments,
    weibull_from_moments,
)
from repro.workload.arrivals import (
    ArrivalProcess,
    MarkovModulatedPoisson,
    PoissonProcess,
    RenewalProcess,
)
from repro.workload.replay import (
    bursty_trace,
    diurnal_trace,
    file_trace,
    live_trace,
    load_arrivals,
    replay_file_params,
    save_arrivals,
    trace_digest,
)
from repro.workload.traces import Trace, TraceStats
from repro.workload.synthesis import (
    FINE_GRAIN_SPEC,
    MEDIUM_GRAIN_SPEC,
    TraceSpec,
    synthesize_trace,
)
from repro.workload.weekly import (
    DiurnalProfile,
    extract_peak_portion,
    synthesize_weekly_trace,
)
from repro.workload.workloads import (
    Workload,
    available_workloads,
    make_workload,
    request_stream,
)

__all__ = [
    "ArrivalProcess",
    "Deterministic",
    "Distribution",
    "DiurnalProfile",
    "Exponential",
    "FINE_GRAIN_SPEC",
    "Lognormal",
    "MarkovModulatedPoisson",
    "MEDIUM_GRAIN_SPEC",
    "Pareto",
    "PoissonProcess",
    "RenewalProcess",
    "Trace",
    "TraceSpec",
    "TraceStats",
    "Uniform",
    "Weibull",
    "Workload",
    "available_workloads",
    "bursty_trace",
    "diurnal_trace",
    "extract_peak_portion",
    "file_trace",
    "live_trace",
    "load_arrivals",
    "replay_file_params",
    "save_arrivals",
    "synthesize_weekly_trace",
    "trace_digest",
    "lognormal_from_moments",
    "make_workload",
    "pareto_from_moments",
    "request_stream",
    "synthesize_trace",
    "weibull_from_moments",
]

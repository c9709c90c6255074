"""Analytical models and statistics.

- :mod:`~repro.analysis.mm1` — M/M/1, M/G/1 (Pollaczek–Khinchine) and
  M/M/k (Erlang-C) formulas used to validate the simulators.
- :mod:`~repro.analysis.inaccuracy` — the paper's load-index inaccuracy
  metric (§2.1): the Eq. 1 closed form ``2ρ/(1−ρ²)`` and its empirical
  measurement on a recorded queue-length step function, plus a
  vectorized single-FIFO-server queue simulator (no DES needed).
- :mod:`~repro.analysis.supermarket` — Mitzenmacher's power-of-d mean
  field model (SPAA'97), which the paper invokes to explain why poll
  size 2 captures most of the benefit.
- :mod:`~repro.analysis.stats` — sample summaries and the KS distances
  the engine-parity tiers compare with.
"""

from repro.analysis.mm1 import (
    erlang_c,
    mg1_mean_response_time,
    mm1_mean_queue_length,
    mm1_mean_response_time,
    mm1_mean_waiting_time,
    mm1_queue_length_pmf,
    mmk_mean_response_time,
)
from repro.analysis.inaccuracy import (
    eq1_upperbound,
    eq1_upperbound_series,
    fifo_queue_length_steps,
    measure_inaccuracy,
)
from repro.analysis.supermarket import (
    supermarket_fixed_point,
    supermarket_mean_queue_length,
    supermarket_mean_response_time,
)
from repro.analysis.stats import summarize

__all__ = [
    "eq1_upperbound",
    "eq1_upperbound_series",
    "erlang_c",
    "fifo_queue_length_steps",
    "measure_inaccuracy",
    "mg1_mean_response_time",
    "mm1_mean_queue_length",
    "mm1_mean_response_time",
    "mm1_mean_waiting_time",
    "mm1_queue_length_pmf",
    "mmk_mean_response_time",
    "summarize",
    "supermarket_fixed_point",
    "supermarket_mean_queue_length",
    "supermarket_mean_response_time",
]

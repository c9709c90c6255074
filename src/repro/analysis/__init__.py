"""Analytical models and statistics.

- :mod:`~repro.analysis.mm1` — the M/M/1 mean response time, the
  ``random`` policy's baseline.
- :mod:`~repro.analysis.inaccuracy` — the paper's load-index inaccuracy
  metric (§2.1): the Eq. 1 closed form ``2ρ/(1−ρ²)`` and its empirical
  measurement on a recorded queue-length step function, plus a
  vectorized single-FIFO-server queue simulator (no DES needed).
- :mod:`~repro.analysis.supermarket` — Mitzenmacher's power-of-d mean
  field model (SPAA'97), which the paper invokes to explain why poll
  size 2 captures most of the benefit.
- :mod:`~repro.analysis.stats` — the KS distances the engine-parity
  tiers compare with, and the Student-t quantile of the replication
  intervals.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.analysis.inaccuracy:eq1_upperbound",
    "repro.analysis.inaccuracy:fifo_queue_length_steps",
    "repro.analysis.inaccuracy:measure_inaccuracy",
    "repro.analysis.mm1:mm1_mean_response_time",
    "repro.analysis.supermarket:supermarket_mean_response_time",
)

"""Prototype-fidelity model of the paper's Linux-cluster testbed.

The paper's §4 point is that the idealized simulation (§2) misses
overheads that matter for fine-grain services. This subpackage supplies
those overheads as a model layered onto the same cluster simulator
(the substitution documented in DESIGN.md §2):

- :class:`~repro.prototype.overhead.PrototypeOverheadModel` — per-access
  server CPU overhead, client CPU cost per poll sent/received, server
  CPU stolen per inquiry handled, and a load-dependent poll-reply delay
  whose 10/20 ms modes come from the Linux scheduler quantum. Default
  parameters are calibrated to the paper's §3.2 profile (at d=3, 90%
  load, 16 servers: 8.1% of polls exceed 10 ms, 5.6% exceed 20 ms).
- :mod:`~repro.prototype.calibration` — the paper's empirical full-load
  rule: 100% load is the single-server request rate at which ~98% of
  requests complete within 2 seconds.
- :mod:`~repro.prototype.profiling` — measure the slow-poll fractions of
  a run (regenerates the §3.2 profile).
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.prototype.calibration:FullLoadCalibration",
    "repro.prototype.overhead:PAPER_PROFILE",
    "repro.prototype.overhead:PollDelayModel",
    "repro.prototype.profiling:PollProfile",
    "repro.prototype.overhead:PrototypeOverheadModel",
    "repro.prototype.microbench:SpinCalibration",
    "repro.prototype.calibration:calibrate_full_load",
    "repro.prototype.microbench:calibrate_spin",
    "repro.prototype.profiling:profile_poll_delays",
    "repro.prototype.microbench:spin_for",
)

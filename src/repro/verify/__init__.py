"""Runtime verification: inline invariant oracle + deterministic fuzzer.

``InvariantOracle`` is an event-hook checker following the same
``None``-when-off pattern as telemetry: ``cluster.oracle`` is ``None``
by default, disabled runs are bit-identical to pre-oracle outputs, and
enabled runs are bit-identical across the heap and calendar engines
(the oracle draws no randomness and schedules no events).

``repro.verify.fuzz`` samples random configurations and fault schedules
from a named RNG substream, runs each under the oracle on both exact
engines, and shrinks any violation to a minimal self-contained JSON
reproducer (see ``repro fuzz``).
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.verify.oracle:InvariantOracle",
    "repro.verify.oracle:InvariantViolation",
)

"""Run-time telemetry collection for a service cluster.

A :class:`TelemetryCollector` is carried by the cluster as
``cluster.telemetry``, put there by :func:`install` (``None`` when
telemetry is off — the same pattern as ``Simulator.trace``). Every
hot-path touch point guards with
a single ``is not None`` check, and the collector itself never draws
random numbers or schedules simulator events, so enabling telemetry
cannot perturb a run: fixed-seed results are bit-identical with
telemetry on or off (a regression test enforces this).

What it captures:

- **spans** — one :class:`~repro.telemetry.spans.RequestSpan` per
  request, built at completion/terminal failure from the timestamps the
  cluster already stamps plus the policy's decision annotation
  (:meth:`note_decision`);
- **time series** — step recorders installed on every server queue and
  on the network (in-flight messages, fault drops), sampled post-run on
  a periodic grid by :func:`~repro.telemetry.sampler.sample_series`;
- **accounting** — per-kind message/byte/drop tallies plus the bound
  policy's counters (polls, replies, broadcasts, ...), snapshotted at
  report time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.metrics import quantiles
from repro.sim.monitor import StepRecorder
from repro.telemetry.sampler import sample_series
from repro.telemetry.spans import AttemptRecord, RequestSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.request import Request
    from repro.cluster.system import ServiceCluster

__all__ = ["TelemetryCollector", "TelemetryReport", "install"]

#: policy counter attributes exported into the accounting snapshot
#: (superset-tolerant: only attributes the policy actually has appear)
_POLICY_COUNTER_ATTRS = (
    "polls_sent",
    "replies_received",
    "replies_discarded",
    "timeouts_fired",
    "broadcasts_sent",
    "queries_served",
    "refreshes",
    "idle_reports_sent",
    "idle_hits",
    "random_fallbacks",
)


@dataclass(frozen=True)
class TelemetryReport:
    """Everything one telemetry-enabled run produced.

    ``series`` maps series name to a float64 array aligned with
    ``series["time"]`` (see :func:`~repro.telemetry.sampler.sample_series`);
    ``accounting`` is a JSON-native nested dict. Export with
    :func:`repro.experiments.io.save_telemetry`.
    """

    spans: tuple[RequestSpan, ...]
    series: dict[str, np.ndarray]
    accounting: dict[str, dict[str, int]]
    sample_interval: float
    #: spans not captured because ``max_spans`` was reached
    spans_dropped: int = 0
    #: per-attempt dispatch records (empty unless the run had both
    #: telemetry and the reliability layer enabled)
    attempts: tuple[AttemptRecord, ...] = ()

    def staleness(self) -> np.ndarray:
        return np.array([span.staleness for span in self.spans])

    def response_times(self) -> np.ndarray:
        return np.array([span.response_time for span in self.spans])


class TelemetryCollector:
    """Collects spans, series recorders, and accounting for one run.

    Parameters
    ----------
    cluster:
        The cluster to instrument; the collector installs queue/network
        step recorders immediately (before any event runs).
    spans:
        Capture per-request lifecycle spans (default True).
    sample_interval:
        Grid spacing, in simulated seconds, for the periodic series
        produced by :meth:`report`.
    max_spans:
        Optional cap on retained spans (memory guard for very long
        runs); further spans are counted in ``spans_dropped``.
    """

    def __init__(
        self,
        cluster: "ServiceCluster",
        spans: bool = True,
        sample_interval: float = 0.05,
        max_spans: Optional[int] = None,
    ):
        if sample_interval <= 0:
            raise ValueError(f"sample_interval must be > 0, got {sample_interval}")
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1 or None, got {max_spans}")
        self.cluster = cluster
        self.spans_enabled = spans
        self.sample_interval = sample_interval
        self.max_spans = max_spans
        self.spans: list[RequestSpan] = []
        self.spans_dropped = 0
        self.attempts: list[AttemptRecord] = []
        self._install_recorders()

    def _install_recorders(self) -> None:
        for server in self.cluster.servers:
            if server.queue_recorder is None:
                server.queue_recorder = StepRecorder(initial=0.0)
        network = self.cluster.network
        if network.inflight_recorder is None:
            network.inflight_recorder = StepRecorder(initial=0.0)
        if network.drops_recorder is None:
            network.drops_recorder = StepRecorder(initial=0.0)

    # ------------------------------------------------------------------
    # hooks: note_decision/on_attempt behind ``telemetry is not None``
    # checks; on_terminal subscribes to the lifecycle's terminal point
    # ------------------------------------------------------------------
    def note_decision(
        self, request: "Request", perceived_load: float, observed_at: float
    ) -> None:
        """Record what the policy knew when it chose this request's server.

        ``perceived_load`` is the load index value used for the chosen
        server; ``observed_at`` is the simulation time that value was
        read (at the server, or when a snapshot/announcement was taken).
        A retry's decision supersedes earlier ones — the span reflects
        the dispatch that actually completed.
        """
        request.decision = (perceived_load, observed_at)

    def on_attempt(
        self, request: "Request", server_id: int, kind: str, breaker_state: str
    ) -> None:
        """Record one dispatch attempt (primary or hedge copy).

        Called by the reliability engine only — runs without the
        reliability layer produce no attempt records. Shares the span
        cap: attempts stop accumulating once ``max_spans`` attempt
        records exist (the memory guard covers both collections).
        """
        if not self.spans_enabled:
            return
        if self.max_spans is not None and len(self.attempts) >= self.max_spans:
            return
        self.attempts.append(
            AttemptRecord(
                index=request.index,
                attempt=request.retries,
                kind=kind,
                server_id=server_id,
                t_dispatch=self.cluster.sim.now,
                breaker_state=breaker_state,
            )
        )

    def on_terminal(self, request: "Request", winner: Optional["Request"]) -> None:
        """Capture the span for a finished or terminally failed request."""
        if not self.spans_enabled:
            return
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.spans_dropped += 1
            return
        self.spans.append(RequestSpan.from_request(request))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def accounting(self) -> dict[str, dict[str, int]]:
        """Message/byte/drop tallies per kind + the policy's counters.

        Runs with the overload subsystem installed additionally get an
        ``"overload"`` section (shed/reject/withdrawal tallies); plain
        runs keep the historical four-section shape.
        """
        network = self.cluster.network
        policy = self.cluster.policy
        accounting = {
            "messages": {k.value: v for k, v in sorted(network.message_counts.items())},
            "bytes": {k.value: v for k, v in sorted(network.byte_counts.items())},
            "dropped": {k.value: v for k, v in sorted(network.dropped_counts.items())},
            "policy": {
                name: int(getattr(policy, name))
                for name in _POLICY_COUNTER_ATTRS
                if hasattr(policy, name)
            },
        }
        if self.cluster.overload is not None:
            accounting["overload"] = {
                name: int(value)
                for name, value in sorted(self.cluster.overload_counters().items())
            }
        return accounting

    def report(self, end_time: Optional[float] = None) -> TelemetryReport:
        """Assemble the final report (call after ``cluster.run()``)."""
        return TelemetryReport(
            spans=tuple(self.spans),
            series=sample_series(self.cluster, self.sample_interval, end_time),
            accounting=self.accounting(),
            sample_interval=self.sample_interval,
            spans_dropped=self.spans_dropped,
            attempts=tuple(self.attempts),
        )

    def summary(self) -> dict[str, float]:
        """Small JSON-native digest for ``SimulationResult.telemetry_summary``."""
        staleness = np.array([span.staleness for span in self.spans])
        finite = staleness[np.isfinite(staleness)]
        out: dict[str, float] = {
            "n_spans": float(len(self.spans)),
            "spans_dropped": float(self.spans_dropped),
            "sample_interval": self.sample_interval,
        }
        if self.attempts:
            out["n_attempts"] = float(len(self.attempts))
            out["n_hedge_attempts"] = float(
                sum(1 for a in self.attempts if a.kind == "hedge")
            )
        if finite.size:
            out["mean_staleness"] = float(finite.mean())
            out["p95_staleness"] = quantiles(finite, (0.95,))[0]
        else:
            out["mean_staleness"] = math.nan
            out["p95_staleness"] = math.nan
        return out


def install(cluster: "ServiceCluster", **knobs) -> None:
    """Install a :class:`TelemetryCollector` of ``knobs`` as ``cluster.telemetry``."""
    cluster.install("telemetry", TelemetryCollector(cluster, **knobs))

"""Per-request lifecycle spans.

A span is the telemetry view of one :class:`~repro.cluster.request.Request`:
every lifecycle timestamp the cluster already stamps on the request,
plus the *decision annotation* a telemetry-aware policy attaches at
selection time — the load index value it acted on for the chosen server
and when that value was observed. ``staleness`` (decision time minus
observation time) is the quantity the attained-service analyses of
Hellemans & Van Houdt (arXiv:2011.08250) study; exporting it per
request lets those analyses run on our own traces.

Spans are built once, at request completion (or terminal failure), so
they cost nothing on the event-loop hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.request import Request

__all__ = ["AttemptRecord", "ATTEMPT_FIELDS", "RequestSpan", "SPAN_FIELDS"]


@dataclass(frozen=True)
class RequestSpan:
    """One request's lifecycle, flattened for export.

    Timestamps are absolute simulation seconds and ``nan`` for phases
    the request never reached (e.g. ``t_enqueued`` for a request whose
    every retry was lost). Derived durations (``response_time``,
    ``poll_time``, ``queue_wait``) are precomputed so consumers of the
    JSONL export need no arithmetic.
    """

    index: int
    client_id: int
    server_id: int
    #: client initiates the access (policy starts working)
    t_created: float
    #: policy committed to a server (== dispatch; selection latency is
    #: ``t_selected - t_created``, the paper's polling time)
    t_selected: float
    #: request entered the server's FIFO queue
    t_enqueued: float
    #: a worker began service
    t_start: float
    #: service finished, response sent
    t_completed: float
    #: response received back at the client (terminal timestamp)
    t_response: float
    service_time: float
    response_time: float
    poll_time: float
    queue_wait: float
    #: load index value the policy acted on for the chosen server
    #: (``nan`` for policies that dispatch without load information)
    perceived_load: float
    #: age of that observation at decision time: ``t_selected`` minus
    #: the time the load index was read/announced (``nan`` when unknown)
    staleness: float
    retries: int
    failed: bool
    #: admission rejections (static bound or overload shedding) this
    #: request absorbed across all delivery attempts (schema v2)
    rejects: int

    @classmethod
    def from_request(cls, request: "Request") -> "RequestSpan":
        """Build the span for a finished (or terminally failed) request."""
        decision = request.decision
        if decision is None:
            perceived, staleness = math.nan, math.nan
        else:
            perceived, observed_at = decision
            staleness = request.dispatch_time - observed_at
        return cls(
            index=request.index,
            client_id=request.client_id,
            server_id=request.server_id,
            t_created=request.arrival_time,
            t_selected=request.dispatch_time,
            t_enqueued=request.enqueue_time,
            t_start=request.start_time,
            t_completed=request.completion_time,
            t_response=request.arrival_time + request.response_time,
            service_time=request.service_time,
            response_time=request.response_time,
            poll_time=request.poll_time,
            queue_wait=request.queue_wait,
            perceived_load=perceived,
            staleness=staleness,
            retries=request.retries,
            failed=request.failed,
            rejects=request.rejects,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in SPAN_FIELDS}


#: ordered span field names — the JSONL export schema (io.py validates
#: each record against this list)
SPAN_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(RequestSpan))


@dataclass(frozen=True)
class AttemptRecord:
    """One dispatch attempt of one request, as the reliability layer saw it.

    Spans summarize a request's *winning* lifecycle; attempt records
    expose the tree underneath — every primary dispatch and hedge copy,
    with the circuit-breaker view of the chosen server at decision time.
    Only produced on runs with both telemetry and the reliability layer
    enabled (the engine is the only caller of
    :meth:`~repro.telemetry.collector.TelemetryCollector.on_attempt`).
    """

    #: request index this attempt belongs to
    index: int
    #: retry counter at dispatch (0 = first attempt)
    attempt: int
    #: ``"primary"`` for policy-selected dispatches, ``"hedge"`` for
    #: reliability-layer hedge copies
    kind: str
    #: server the attempt targeted
    server_id: int
    #: simulation time the attempt left the client
    t_dispatch: float
    #: the target server's breaker state at decision time
    #: (``closed`` / ``open`` / ``half_open``; ``closed`` when breakers
    #: are disabled)
    breaker_state: str

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in ATTEMPT_FIELDS}


#: ordered attempt field names — the attempts.jsonl export schema
ATTEMPT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(AttemptRecord))

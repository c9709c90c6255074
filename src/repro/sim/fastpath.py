"""Vectorized large-N batch engine for the homogeneous policies.

The exact engines (heap/calendar) pay several Python events per request
— arrival, REQUEST delivery, completion, RESPONSE delivery, plus poll
round trips — which tops out around 10^5 events/sec and makes
thousand-server, million-request cells impractical. This module trades
*bit*-level fidelity for *distribution*-level fidelity: server state
lives in NumPy arrays and time advances in fixed arrival-batch ticks,
so the per-request cost is a handful of vectorized operations amortized
over the batch.

Model (simulation model only, workers=1, homogeneous speeds):

- Requests arrive at ``cumsum(gaps)`` exactly as in the exact engines
  (same ``workload`` substream, same load rescaling), dispatch after the
  policy's constant selection latency (0 for random/broadcast/stale_jsq,
  one UDP round trip for polling), travel one request one-way latency,
  queue FIFO, and complete via the per-server Lindley recursion
  ``start = max(server_arrival, server_free)``.
- Queue lengths, broadcast tables, and stale-JSQ snapshots are arrays
  updated at tick boundaries: a selection inside a tick sees server
  state as of the tick start. The tick defaults to 1/16 of the smallest
  relevant timescale (mean service time, broadcast interval, snapshot
  interval), so the induced decision staleness is small against the
  staleness the policies already model.
- The loop iterates once per *state window*, not once per tick: a batch
  spans several ticks exactly while its selections read no state that
  those ticks could change (the whole run for random, the ticks between
  two snapshot refreshes for stale_jsq, one tick for polling and
  broadcast). Windowing changes how often Python runs, never a result.
- Broadcast announcements read no queue state, so they are worked out a
  block of ticks ahead (:func:`_announce_block`; a block spans under
  half the mean interval, so no server announces twice in it) and a
  tick only copies its announcers' queue lengths into the table.
- The per-server FIFO recursion of a batch (:func:`_lindley_assign`) is
  one vectorized step when no server is chosen twice, adds a scalar
  tail when a few jobs share a server, and runs occurrence-rank rounds
  otherwise (:func:`_rank_rounds`: the servers ordered by job count,
  largest first, so each round's servers are a prefix of the last's).
- Polling's candidate rows (:func:`_distinct_candidates`) redraw every
  row with a repeated server until none is left; at poll size 2 one
  column compare finds those rows, larger rows are sorted first.
- All randomness draws from the same named substreams as the exact
  engines (``policy.random``, ``policy.polling``,
  ``policy.broadcast.{ties,intervals}``, ``policy.stale.ties``), so each
  (seed, policy, size) cell is deterministic and seed-comparable.

Validation ladder (DESIGN.md §13): the exact engines stay bit-identical
to each other (tier 1); the fast path is validated against the heap
engine at small N by KS/occupancy agreement (tier 2,
:func:`repro.experiments.parity.distribution_parity`) and against the
mean-field/fluid limit at large N (tier 3,
:mod:`repro.analysis.meanfield`).

Anything the batch model cannot represent — prototype overhead, chaos,
reliability, overload, telemetry, availability soft state, timeouts,
admission bounds, heterogeneous speeds — raises
:class:`FastpathUnsupportedError` so a config never *silently* runs
under the approximate engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.cluster.metrics import ClusterMetrics
from repro.core.registry import make_policy
from repro.net.latency import PAPER_NET, PaperNetworkConstants
from repro.sim.rng import RngHub
from repro.workload.workloads import request_stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import SimulationConfig

__all__ = [
    "FASTPATH_POLICIES",
    "FastpathRun",
    "FastpathUnsupportedError",
    "fastpath_refusals",
    "fastpath_violations",
    "run_fastpath",
]

#: policies the batch engine can represent
FASTPATH_POLICIES = ("random", "polling", "broadcast", "stale_jsq")

#: tick = (smallest relevant timescale) / _TICK_DIVISOR
_TICK_DIVISOR = 16.0

#: a batch whose shared jobs (those on a server chosen more than once)
#: number at most this many runs them one at a time in Python instead of
#: in occurrence-rank rounds (measured basis: DESIGN.md §13)
_SCALAR_TAIL = 8


class FastpathUnsupportedError(ValueError):
    """A config requires exact-engine semantics the batch model lacks."""


def fastpath_refusals(config: "SimulationConfig") -> Iterator[tuple[str, str]]:
    """Config features the fast path cannot represent, as ``(config
    field, violation)`` pairs.

    Each violation names the offending knob so the error message tells
    the caller exactly what forced the exact engines; the field lets a
    scenario name the axis that set it.
    """
    from repro.experiments.config import SUBSYSTEMS

    if config.model != "simulation":
        yield "model", f"model={config.model!r} (prototype overhead model)"
    if config.policy not in FASTPATH_POLICIES:
        supported = ", ".join(FASTPATH_POLICIES)
        yield "policy", f"policy={config.policy!r} (supported: {supported})"
    if config.policy == "stale_jsq" and config.policy_params.get("local_increment"):
        yield "policy_params", "policy_params.local_increment (per-client table state)"
    if config.workers != 1:
        yield "workers", f"workers={config.workers} (multi-worker service)"
    if config.server_speeds is not None:
        yield "server_speeds", "server_speeds (heterogeneous service rates)"
    for key in sorted(set(config.cluster_params) - {"record_server_queues"}):
        yield "cluster_params", f"cluster_params.{key}"
    for name, row in SUBSYSTEMS.items():
        if getattr(config, name):
            yield name, f"{name} ({row.fast_refusal})"


def fastpath_violations(config: "SimulationConfig") -> list[str]:
    """The violations of :func:`fastpath_refusals` (empty = OK)."""
    return [violation for _, violation in fastpath_refusals(config)]


def require_fastpath_supported(config: "SimulationConfig") -> None:
    """Raise :class:`FastpathUnsupportedError` listing every offending
    knob (loud fallback — never silently substitute an exact engine)."""
    violations = fastpath_violations(config)
    if violations:
        raise FastpathUnsupportedError(
            "engine='fast' cannot represent this config; re-run with "
            "--engine heap (or calendar). Unsupported: "
            + "; ".join(violations)
        )


@dataclass
class FastpathRun:
    """Everything a fast-path run produces.

    ``metrics`` is a fully populated :class:`ClusterMetrics` (same
    summary path as the exact engines). ``occupancy`` is the
    time-weighted distribution of per-server queue lengths over the
    post-warmup window — ``occupancy[k]`` is the fraction of
    server-time spent with exactly ``k`` requests in system — the
    tier-2 comparison object against the heap engine and the empirical
    counterpart of the mean-field tail ``s_k``.

    ``ticks`` counts *model* ticks (what ``events_executed`` reports for
    ``engine="fast"``); ``iterations`` counts the state windows the loop
    actually walked, which is smaller wherever several ticks share one
    batch.
    """

    metrics: ClusterMetrics
    nominal_rho: float
    ticks: int
    tick_length: float
    occupancy: Optional[np.ndarray]
    message_counts: dict[str, int] = field(default_factory=dict)
    policy_counters: dict[str, int] = field(default_factory=dict)
    iterations: int = 0


def _distinct_candidates(
    rng: np.random.Generator, n_batch: int, d: int, n_servers: int
) -> np.ndarray:
    """``(n_batch, d)`` rows of distinct server ids, uniform like the
    exact engine's rejection sampler.

    A row holding a repeated id is redrawn whole, all such rows at once
    in row order, until none is left. At ``d == 2`` a row repeats exactly
    when its two columns are equal, so one compare finds them; larger
    rows are sorted first. Both paths redraw the same rows with the same
    draws."""
    if d >= n_servers:
        return np.broadcast_to(np.arange(n_servers), (n_batch, n_servers)).copy()
    cand = rng.integers(0, n_servers, size=(n_batch, d))
    if d == 2:
        dup = cand[:, 0] == cand[:, 1]
        redraw = np.count_nonzero(dup)
        while redraw:
            cand[dup] = rng.integers(0, n_servers, size=(redraw, 2))
            dup = cand[:, 0] == cand[:, 1]
            redraw = np.count_nonzero(dup)
    elif d > 2:
        while True:
            ordered = np.sort(cand, axis=1)
            dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            if not dup.any():
                break
            cand[dup] = rng.integers(0, n_servers, size=(int(dup.sum()), d))
    return cand


def _exact_occupancy(
    server_arrival: np.ndarray,
    completion: np.ndarray,
    choice: np.ndarray,
    n_servers: int,
    t0: float,
    t1: float,
) -> np.ndarray:
    """Exact time-weighted distribution of per-server queue lengths.

    Reconstructed post-hoc from the assignment arrays (+1 at server
    arrival, −1 at completion), so it carries no tick-sampling error:
    ``result[k]`` is the exact fraction of server-time in ``[t0, t1]``
    spent with ``k`` requests in system, matching the heap engine's
    ``StepRecorder`` semantics (queued + in service).
    """
    if t1 <= t0:
        return np.array([1.0])
    n = choice.shape[0]
    times = np.concatenate((server_arrival, completion))
    deltas = np.concatenate((np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)))
    servers = np.concatenate((choice, choice)).astype(np.int64)
    order = np.lexsort((times, servers))
    t_sorted = times[order]
    s_sorted = servers[order]
    level = np.cumsum(deltas[order])
    boundary = np.empty(2 * n, dtype=bool)
    boundary[0] = True
    np.not_equal(s_sorted[1:], s_sorted[:-1], out=boundary[1:])
    seg_start = np.flatnonzero(boundary)
    # Restart the running level at each server boundary.
    prev = np.concatenate(([0], level[:-1]))
    seg_sizes = np.diff(np.append(seg_start, 2 * n))
    level = level - np.repeat(prev[seg_start], seg_sizes)
    # Each event's level holds until the next event on the same server;
    # a server's last event holds until the window end.
    hold_until = np.empty(2 * n)
    hold_until[:-1] = t_sorted[1:]
    hold_until[-1] = t1
    hold_until[seg_start - 1] = t1  # seg_start[0]-1 wraps to the final event
    duration = np.clip(hold_until, t0, t1) - np.clip(t_sorted, t0, t1)
    # Simultaneous events on one server can transiently order a
    # completion before an unrelated arrival (level −1 for zero
    # duration); clamp for bincount.
    hist = np.bincount(np.maximum(level, 0), weights=duration)
    # Level-0 time before each server's first event, plus the whole
    # window for servers that never received a request.
    first_t = np.clip(t_sorted[seg_start], t0, t1)
    hist[0] += float((first_t - t0).sum()) + (n_servers - seg_start.size) * (t1 - t0)
    return hist / hist.sum()


def _lindley_assign(
    free: np.ndarray,
    choice: np.ndarray,
    counts: np.ndarray,
    server_arrival: np.ndarray,
    service: np.ndarray,
    start: np.ndarray,
    completion: np.ndarray,
) -> None:
    """FIFO begin-service and completion times for one batch.

    Per job, in arrival order on its server: ``begin = max(arrival,
    free[s])``, ``free[s] = begin + service``. ``counts`` is
    ``bincount(choice, minlength=free.size)`` (the caller needs it for
    the queue lengths anyway); ``free`` is updated in place and the
    results land in ``start`` / ``completion``.

    Three cases, cheapest first:

    - no server appears twice: one ``maximum``, one add, one scatter;
    - at most ``_SCALAR_TAIL`` jobs share a server: every job takes the
      one vectorized step, then the shared jobs are redone one at a
      time in arrival order from their servers' prior ``free``;
    - otherwise jobs hitting the same server are serialized via
      occurrence-rank rounds: round ``r`` processes each server's
      ``r``-th job of the batch, so every round is a pure vectorized
      ``max``/add over distinct servers.
    """
    # Jobs that follow another on their server. The shared jobs number
    # from repeats + 1 to 2 * repeats, so one count over `counts` spares
    # a batch with many repeats (stale_jsq, random) the three numpy
    # calls of counting them.
    repeats = choice.size - np.count_nonzero(counts)
    if repeats:
        shared = (counts[choice] > 1).nonzero()[0] if repeats < _SCALAR_TAIL else None
        if shared is None or shared.size > _SCALAR_TAIL:
            _rank_rounds(free, choice, counts, server_arrival, service, start, completion)
            return
        jobs = shared.tolist()
        servers = choice[shared].tolist()
        drained = {s: free[s] for s in servers}
    np.maximum(server_arrival, free[choice], out=start)
    np.add(start, service, out=completion)
    free[choice] = completion
    if not repeats:
        return
    # The step above gave each shared job its server's pre-batch `free`;
    # redo those jobs in arrival order from the values saved before it.
    for j, s in zip(jobs, servers):
        begin = max(server_arrival[j], drained[s])
        drained[s] = finish = begin + service[j]
        start[j] = begin
        completion[j] = finish
    for s, finish in drained.items():
        free[s] = finish


def _rank_rounds(
    free: np.ndarray,
    choice: np.ndarray,
    counts: np.ndarray,
    server_arrival: np.ndarray,
    service: np.ndarray,
    start: np.ndarray,
    completion: np.ndarray,
) -> None:
    """:func:`_lindley_assign`'s general case."""
    # A stable sort by server makes each server's jobs contiguous and
    # keeps them in arrival order; `counts` gives the group layout, so
    # round r's jobs sit at group_start + r of the groups holding more
    # than r jobs. With the groups ordered largest first those are a
    # prefix, so each round slices: O(active groups), O(n) total. The
    # servers of one round are distinct, so the group order cannot
    # change a value.
    order = choice.argsort(kind="stable")
    servers = counts.nonzero()[0]
    sizes = counts[servers]
    group_start = sizes.cumsum() - sizes
    largest_first = (-sizes).argsort()
    servers = servers[largest_first]
    group_start = group_start[largest_first]
    # groups holding more than r jobs, for each round r
    active = (servers.size - np.bincount(sizes).cumsum()[:-1]).tolist()
    for rank, m in enumerate(active):
        round_servers = servers[:m]
        idx = order[group_start[:m] + rank]
        begin = np.maximum(server_arrival[idx], free[round_servers])
        finish = begin + service[idx]
        free[round_servers] = finish
        start[idx] = begin
        completion[idx] = finish


def _announce_block(
    next_announce: np.ndarray,
    rng: np.random.Generator,
    mean_interval: float,
    t: float,
    tick: float,
    n_ticks: int,
    last_arrival: float,
) -> tuple[np.ndarray, list[int]]:
    """Broadcast announcements of the ``n_ticks`` ticks that follow ``t``,
    or of fewer if an earlier one ends after ``last_arrival`` (the run's
    last tick).

    Tick ``k``'s announcing servers are ``announced[bounds[k]:bounds[k +
    1]]``, in the order a tick-by-tick walk draws their next intervals;
    ``next_announce`` advances in place. A one-tick block repeats the
    walk's "due again inside the tick" rounds. A longer block must be
    shorter than half ``mean_interval``: no server then announces twice
    inside it, so one draw over its due servers, sorted by (tick,
    server), is exactly the draws of the walk.
    """
    t_end = t + tick
    if n_ticks == 1:
        due = (next_announce < t_end).nonzero()[0]
        rounds = [due]
        while due.size:
            next_announce[due] += rng.uniform(0.5, 1.5, size=due.size) * mean_interval
            due = due[next_announce[due] < t_end]
            rounds.append(due)
        announced = np.concatenate(rounds)
        return announced, [0, announced.size]
    # the tick ends, by the same float additions the loop makes
    ends = [t_end]
    while len(ends) < n_ticks and t_end <= last_arrival:
        t_end += tick
        ends.append(t_end)
    due = (next_announce < t_end).nonzero()[0]
    when = next_announce[due]
    # a tick index fits 8 or 16 bits, where numpy's stable sort is a radix sort
    tick_of = np.array(ends).searchsorted(when, side="right")
    tick_of = tick_of.astype(np.min_scalar_type(len(ends)))
    order = tick_of.argsort(kind="stable")
    announced = due[order]
    next_announce[announced] = (
        when[order] + rng.uniform(0.5, 1.5, size=announced.size) * mean_interval
    )
    return announced, [0, *np.bincount(tick_of, minlength=len(ends)).cumsum().tolist()]


def _checked_tick(tick: float) -> float:
    """``tick`` as a float, or a ``ValueError`` naming it unless it is
    finite and positive (nan, ±inf and 0 would never advance the grid)."""
    tick = float(tick)
    if not 0.0 < tick < math.inf:
        raise ValueError(f"tick must be finite and > 0, got {tick}")
    return tick


def run_fastpath(
    config: "SimulationConfig",
    tick: Optional[float] = None,
    constants: PaperNetworkConstants = PAPER_NET,
    record_occupancy: bool = True,
) -> FastpathRun:
    """Run one supported config under the vectorized batch engine.

    ``record_occupancy=False`` skips the post-hoc occupancy
    reconstruction (an O(n log n) sort) for throughput-only runs; the
    result's ``occupancy`` is then ``None``.
    """
    require_fastpath_supported(config)
    if tick is not None:
        tick = _checked_tick(tick)
    # Instantiating the real policy object validates policy_params
    # exactly as the exact engines would (bad poll_size, missing
    # mean_interval, ...) and hands us its canonical attributes.
    policy = make_policy(config.policy, **config.policy_params)

    hub = RngHub(config.seed)
    nominal_rho = config.load
    gaps, services = request_stream(
        config.workload,
        config.workload_params,
        config.seed,
        config.n_requests,
        config.n_servers,
        nominal_rho,
    )
    arrivals = np.cumsum(gaps)

    n = config.n_requests
    n_servers = config.n_servers
    one_way = constants.request_one_way

    # Per-policy selection latency (constant in the simulation model:
    # polls ride two UDP one-ways, instant policies dispatch at arrival).
    kind = config.policy
    poll_size = 0
    degenerate_discard = False
    if kind == "polling":
        poll_size = min(policy.poll_size, n_servers)
        dispatch_offset = constants.udp_rtt
        discard_timeout = (
            policy.discard_timeout
            if policy.discard_timeout is not None
            else constants.discard_timeout
        )
        # With constant latencies every reply lands at +udp_rtt, so the
        # §3.2 discard machinery only bites when the deadline beats the
        # round trip — then zero replies are in and the *first* reply
        # (the first poll sent) decides. With poll_size < n_servers that
        # is a uniform draw; with every server polled it would be server
        # 0 every time, which SimulationConfig refuses.
        degenerate_discard = policy.discard_slow and discard_timeout < constants.udp_rtt
    else:
        dispatch_offset = 0.0
    server_arrival = arrivals + (dispatch_offset + one_way)

    # Tick: 1/_TICK_DIVISOR of the smallest timescale that selection
    # state evolves on. Small N runs degrade toward per-arrival batches
    # (slow but maximally faithful — exactly where tier-2 validates);
    # large N runs pack hundreds of arrivals per tick.
    if tick is None:
        base = float(services.mean())
        if kind == "broadcast":
            base = min(base, policy.mean_interval)
        elif kind == "stale_jsq":
            base = min(base, policy.update_interval)
        tick = _checked_tick(base / _TICK_DIVISOR)

    # Policy state + substreams (same names as the exact engines).
    if kind == "random":
        rng_policy = hub.stream("policy.random")
    elif kind == "polling":
        rng_policy = hub.stream("policy.polling")
    elif kind == "broadcast":
        rng_ties = hub.stream("policy.broadcast.ties")
        rng_intervals = hub.stream("policy.broadcast.intervals")
        table = np.zeros(n_servers, dtype=np.int64)
        next_announce = (
            rng_intervals.uniform(0.5, 1.5, size=n_servers) * policy.mean_interval
        )
        broadcasts_sent = 0
        # Announcements are worked out a block of ticks ahead (they read
        # no queue state). The first tick is a block on its own; after
        # it a block spans less than half the mean interval, one tick
        # short of it so float rounding in the tick ends cannot matter.
        block_ticks = max(1, math.floor(0.5 * policy.mean_interval / tick) - 1)
        announced, bounds, block_tick = None, [0], 0
    else:  # stale_jsq
        rng_ties = hub.stream("policy.stale.ties")
        # Selection only ever reads the snapshot's set of minima, so
        # that set is what a refresh stores (all-zero snapshot at start).
        minima = np.arange(n_servers)
        next_refresh = policy.update_interval
        refreshes = 0

    # Server state.
    free = np.zeros(n_servers)  # work-drain time per server
    qlen = np.zeros(n_servers, dtype=np.int64)  # queued + in service

    metrics = ClusterMetrics(n)
    metrics.arrival_time[:] = arrivals
    metrics.poll_time[:] = 0.0 if kind != "polling" else constants.udp_rtt

    # Per-request kernel outputs, written by slice. The metrics arrays
    # double as the buffers: queue_wait holds begin-service times and
    # response_time holds completion times until the loop ends.
    start = metrics.queue_wait
    completion = metrics.response_time
    # Pending pool: completion time and server of the requests qlen
    # still counts, in pool_*[:pooled]. A retired entry is overwritten
    # with inf where it sits; the pool is compacted once over half of
    # it is retired.
    pool_completion = np.empty(n)
    pool_server = np.empty(n, dtype=np.int64)
    pooled = retired = 0

    # One iteration covers a *state window*: a run of ticks whose
    # selections read no state that those ticks could change. Random
    # never reads server state, so the whole run is one window (and its
    # response times match the heap engine's exactly); stale_jsq reads
    # only the snapshot, so a window runs up to the tick holding the
    # next refresh; polling reads qlen and broadcast reads a table that
    # some server overwrites every tick, so their windows are one tick.
    window = math.inf if kind == "random" else tick
    skip_ahead = kind in ("random", "polling")  # no timed control state
    last_arrival = float(arrivals[-1])
    t = tick * math.floor(float(arrivals[0]) / tick)
    i0 = 0
    ticks = 0
    iterations = 0
    while i0 < n:
        iterations += 1
        ticks += 1
        t_end = t + window

        # 1. Completions up to the window start leave the system.
        if pooled:
            done = (pool_completion[:pooled] <= t).nonzero()[0]
            if done.size:
                np.subtract.at(qlen, pool_server[done], 1)
                pool_completion[done] = math.inf
                retired += done.size
                if 2 * retired > pooled:
                    live = (pool_completion[:pooled] < math.inf).nonzero()[0]
                    pooled, retired = live.size, 0
                    pool_completion[:pooled] = pool_completion[live]
                    pool_server[:pooled] = pool_server[live]

        # 2. Timed control state due inside the window's first tick.
        if kind == "broadcast":
            if block_tick + 1 == len(bounds):  # the block is used up
                announced, bounds = _announce_block(
                    next_announce,
                    rng_intervals,
                    policy.mean_interval,
                    t,
                    tick,
                    1 if iterations == 1 else block_ticks,
                    last_arrival,
                )
                broadcasts_sent += announced.size
                block_tick = 0
            due = announced[bounds[block_tick] : bounds[block_tick + 1]]
            table[due] = qlen[due]
            block_tick += 1
        elif kind == "stale_jsq":
            if next_refresh < t_end:
                while next_refresh < t_end:
                    refreshes += 1
                    next_refresh += policy.update_interval
                minima = (qlen == qlen.min()).nonzero()[0]
            # Extend the window over the following ticks that hold no
            # refresh, stepping with the same float addition a tick-by-
            # tick walk would use so the batches cut at the same arrivals.
            while t_end <= last_arrival and next_refresh >= t_end + tick:
                t_end += tick
                ticks += 1

        # 3. Select + assign the window's arrivals.
        i1 = int(arrivals.searchsorted(t_end))
        if i1 > i0:
            n_batch = i1 - i0
            if kind == "random":
                picked = rng_policy.integers(0, n_servers, size=n_batch)
            elif kind == "polling":
                cand = _distinct_candidates(rng_policy, n_batch, poll_size, n_servers)
                if degenerate_discard:
                    picked = cand[:, 0]
                else:
                    # Integer queue lengths + U[0,1) noise == uniform
                    # tie-breaking among minima (choose_min_with_ties).
                    keys = qlen[cand] + rng_policy.random(cand.shape)
                    picked = cand[np.arange(n_batch), keys.argmin(axis=1)]
            else:
                if kind == "broadcast":
                    minima = (table == table.min()).nonzero()[0]
                picked = minima[rng_ties.integers(0, minima.size, size=n_batch)]

            counts = np.bincount(picked, minlength=n_servers)
            _lindley_assign(
                free,
                picked,
                counts,
                server_arrival[i0:i1],
                services[i0:i1],
                start[i0:i1],
                completion[i0:i1],
            )
            metrics.server_id[i0:i1] = picked
            if i1 < n:  # final batch: no later selection reads state
                qlen += counts
                pool_completion[pooled : pooled + n_batch] = completion[i0:i1]
                pool_server[pooled : pooled + n_batch] = picked
                pooled += n_batch
            i0 = i1

        t = t_end
        if skip_ahead and i0 < n:
            # Jump empty stretches (no timed control state to replay).
            t_next_arrival = tick * math.floor(float(arrivals[i0]) / tick)
            if t_next_arrival > t:
                t = t_next_arrival

    # Per-request metrics, derived once: the buffers turn from times
    # into durations in place.
    start -= server_arrival  # metrics.queue_wait
    completion += one_way  # metrics.response_time
    completion -= arrivals

    # Exact occupancy over the post-warmup arrival window, reconstructed
    # from the completed assignment (no tick-sampling error).
    occupancy = None
    if record_occupancy:
        warmup_index = int(n * config.warmup_fraction)
        occupancy = _exact_occupancy(
            server_arrival,
            metrics.response_time + arrivals - one_way,
            metrics.server_id,
            n_servers,
            float(arrivals[min(warmup_index, n - 1)]),
            float(arrivals[-1]),
        )

    message_counts = {"request": n, "response": n}
    policy_counters: dict[str, int] = {}
    if kind == "polling":
        message_counts["poll"] = poll_size * n
        message_counts["poll_reply"] = poll_size * n
        if degenerate_discard:
            policy_counters = {
                "polls_sent": poll_size * n,
                "replies_received": n,
                "replies_discarded": (poll_size - 1) * n,
                "timeouts_fired": n,
            }
        else:
            policy_counters = {
                "polls_sent": poll_size * n,
                "replies_received": poll_size * n,
                "replies_discarded": 0,
                "timeouts_fired": 0,
            }
    elif kind == "broadcast":
        message_counts["broadcast"] = broadcasts_sent * config.n_clients
        policy_counters = {"broadcasts_sent": broadcasts_sent}
    elif kind == "stale_jsq":
        policy_counters = {"refreshes": refreshes}

    return FastpathRun(
        metrics=metrics,
        nominal_rho=nominal_rho,
        ticks=ticks,
        tick_length=tick,
        occupancy=occupancy,
        message_counts=message_counts,
        policy_counters=policy_counters,
        iterations=iterations,
    )

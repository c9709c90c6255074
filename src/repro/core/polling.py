"""Random polling policy (paper §2.3, §3, §4) — the paper's winner.

"For every service access, the random polling policy requires a client
to randomly poll several servers for load information and then direct
the service access to the most lightly loaded server according to the
polling results."

Two operating modes:

- **basic** — wait for *all* ``poll_size`` replies before deciding
  (connected UDP sockets + ``select``). Under the prototype overhead
  model the per-request polling time is the **max** of d load-dependent
  reply delays — precisely why poll size 8 collapses for fine-grain
  workloads in Figure 6.
- **discard_slow** (§3.2) — stop waiting ``discard_timeout`` (10 ms)
  after the polls go out and decide on whatever has arrived; late
  replies are ignored. If *nothing* has arrived at the deadline, the
  first subsequent reply decides (the paper does not specify this
  corner; waiting for one reply preserves "never dispatch blind").

``weight_by_speed`` (extension) weights replies by server speed for
heterogeneous clusters.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import LoadBalancer, NoCandidatesError, choose_min_with_ties

__all__ = ["RandomPollingPolicy"]


class _PollOperation:
    """In-flight state for one request's poll round."""

    __slots__ = ("request", "client", "expected", "replies", "done", "timeout_handle")

    def __init__(self, client, request, expected: int):
        self.client = client
        self.request = request
        self.expected = expected
        #: (server_id, queue_length, observed_at) per reply
        self.replies: list[tuple[int, int, float]] = []
        self.done = False
        self.timeout_handle = None


class RandomPollingPolicy(LoadBalancer):
    name = "polling"

    def __init__(
        self,
        poll_size: int = 2,
        discard_slow: bool = False,
        discard_timeout: Optional[float] = None,
        weight_by_speed: bool = False,
    ):
        super().__init__()
        if poll_size < 1:
            raise ValueError(f"poll_size must be >= 1, got {poll_size}")
        if discard_timeout is not None and discard_timeout <= 0:
            raise ValueError(f"discard_timeout must be > 0, got {discard_timeout}")
        self.poll_size = poll_size
        self.discard_slow = discard_slow
        self.discard_timeout = discard_timeout
        self.weight_by_speed = weight_by_speed
        # Counters reported by the Table 2 bench.
        self.polls_sent = 0
        self.replies_received = 0
        self.replies_discarded = 0
        self.timeouts_fired = 0

    def _setup(self) -> None:
        self._rng = self.ctx.index_stream("policy.polling")
        if self.discard_slow and self.discard_timeout is None:
            self.discard_timeout = self.ctx.constants.discard_timeout

    # ------------------------------------------------------------------
    def select(self, client, request) -> None:
        ctx = self.ctx
        candidates = ctx.available_servers(client)
        if not candidates:
            raise NoCandidatesError("no live servers")
        count = min(self.poll_size, len(candidates))
        if count == len(candidates):
            targets = candidates
        else:
            # Rejection-sample distinct indices: for d << n this beats
            # Generator.choice(replace=False) by ~20 µs/request
            # (profile-guided; select() runs once per request).
            rng = self._rng
            n = len(candidates)
            seen: set[int] = set()
            targets = []
            while len(targets) < count:
                pick = rng.integers(n)
                if pick not in seen:
                    seen.add(pick)
                    targets.append(candidates[pick])
        operation = _PollOperation(client, request, count)
        if self.discard_slow:
            operation.timeout_handle = ctx.sim.after(
                self.discard_timeout, self._on_timeout, operation
            )
        self.polls_sent += count
        on_reply = lambda sid, qlen, seen, op=operation: self._on_reply(op, sid, qlen, seen)  # noqa: E731
        for server_id in targets:
            ctx.poll_server(client, server_id, on_reply)

    # ------------------------------------------------------------------
    def _on_reply(
        self,
        operation: _PollOperation,
        server_id: int,
        queue_length: int,
        observed_at: float,
    ) -> None:
        if operation.done:
            self.replies_discarded += 1
            return
        self.replies_received += 1
        operation.replies.append((server_id, queue_length, observed_at))
        if len(operation.replies) == operation.expected:
            self._decide(operation)
        elif operation.timeout_handle is None and self.discard_slow:
            # Timeout already fired with zero replies; first reply decides.
            self._decide(operation)

    def _on_timeout(self, operation: _PollOperation) -> None:
        operation.timeout_handle = None
        if operation.done:
            return
        self.timeouts_fired += 1
        if operation.replies:
            self._decide(operation)
        # else: leave timeout_handle None; the first reply will decide.

    def _decide(self, operation: _PollOperation) -> None:
        operation.done = True
        if operation.timeout_handle is not None:
            self.ctx.sim.cancel(operation.timeout_handle)
            operation.timeout_handle = None
        replies = operation.replies
        if self.weight_by_speed:
            servers = self.ctx.servers
            values = [(qlen + 1) / servers[sid].speed for sid, qlen, _seen in replies]
        else:
            values = [qlen for _sid, qlen, _seen in replies]
        ids = [sid for sid, _qlen, _seen in replies]
        server_id = choose_min_with_ties(ids, values, self._rng)
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            for sid, qlen, seen in replies:
                if sid == server_id:
                    telemetry.note_decision(operation.request, float(qlen), seen)
                    break
        self.ctx.dispatch(operation.client, operation.request, server_id)

    def describe(self) -> str:
        suffix = "+discard" if self.discard_slow else ""
        return f"polling(d={self.poll_size}){suffix}"

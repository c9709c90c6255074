"""Seam audit regression tests (one per audited site).

The Clock protocol allows an arbitrary origin — ``loop.time()`` on a
wall clock can read anything. Every timed component under ``cluster/``
and ``net/`` is driven here with a :class:`ManualClock` anchored at an
epoch-scale (and, where it matters, a negative) origin to prove none of
them assume time starts at ``0.0``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.availability import ServiceMappingTable, ServicePublisher
from repro.cluster.overload import OverloadController, OverloadPolicy
from repro.cluster.reliability import (
    RETRY_BUDGET_REFILL,
    CircuitBreaker,
    ReliabilityEngine,
    ReliabilityPolicy,
)
from repro.core.polling import RandomPollingPolicy
from repro.net.message import Message, MessageKind
from repro.net.switch import SwitchedEthernet
from repro.sim.rng import IndexStream
from repro.telemetry.sampler import sample_series
from tests.live.manual_clock import ManualClock

EPOCH = 1.7e9


# ----------------------------------------------------------------------
# circuit breaker: lazy open/half-open transitions
# ----------------------------------------------------------------------
def test_breaker_transitions_at_epoch_origin():
    breaker = CircuitBreaker(threshold=2, cooldown=1.0)
    assert breaker.state(EPOCH) == "closed"
    breaker.record_failure(EPOCH)
    breaker.record_failure(EPOCH + 0.1)
    assert breaker.state(EPOCH + 0.1) == "open"
    assert not breaker.allows(EPOCH + 0.5)
    assert breaker.state(EPOCH + 1.2) == "half_open"
    assert breaker.allows(EPOCH + 1.2)
    breaker.record_success(EPOCH + 1.2)
    assert breaker.state(EPOCH + 1.2) == "closed"


def test_breaker_never_compares_against_zero():
    # A breaker opened at a negative-origin time must still be open
    # "now", not leak open-state from comparing against t=0.
    breaker = CircuitBreaker(threshold=1, cooldown=10.0)
    breaker.record_failure(-100.0)
    assert breaker.state(-95.0) == "open"
    assert breaker.state(-89.0) == "half_open"


# ----------------------------------------------------------------------
# overload controller: interval/withdraw timers
# ----------------------------------------------------------------------
def _completion(start_time):
    return SimpleNamespace(start_time=start_time)


def test_overload_interval_timing_at_epoch_origin():
    clock = ManualClock(origin=EPOCH)
    policy = OverloadPolicy(sojourn_target=0.05, interval=0.1, ewma_alpha=1.0,
                            shed_jitter=0.0)
    controller = OverloadController(policy, clock, workers=1,
                                    rng=np.random.default_rng(0))
    # Teach the EWMA a 0.1s service time: delay estimate = q*0.1.
    controller.observe_completion(_completion(clock.now - 0.1), queue_length=0)
    assert controller.admit(1)  # 0.1 > target starts the above-target window
    assert not controller.shedding  # within the interval grace period
    clock.advance(0.2)
    assert not controller.admit(5)  # grace elapsed -> shedding
    assert controller.shedding


def test_overload_recovery_at_epoch_origin():
    clock = ManualClock(origin=EPOCH)
    policy = OverloadPolicy(sojourn_target=0.5, interval=0.01, ewma_alpha=1.0,
                            shed_jitter=0.0)
    controller = OverloadController(policy, clock, workers=1,
                                    rng=np.random.default_rng(0))
    controller.observe_completion(_completion(clock.now - 0.9), queue_length=0)
    controller.admit(9)
    clock.advance(0.05)
    controller.admit(9)
    assert controller.shedding
    # A fast completion drops the estimate below target -> recover.
    controller.observe_completion(_completion(clock.now - 0.001), queue_length=0)
    assert not controller.shedding


# ----------------------------------------------------------------------
# soft-state TTL: mapping table + publisher refresh loop
# ----------------------------------------------------------------------
def test_mapping_table_ttl_expiry_at_epoch_origin():
    clock = ManualClock(origin=EPOCH)
    table = ServiceMappingTable(clock, ttl=1.0)
    table._on_publish(SimpleNamespace(payload=(3, (("svc", 0),), clock.now)))
    assert table.available("svc") == [3]
    clock.advance(0.9)
    assert table.available("svc") == [3]
    clock.advance(0.2)
    assert table.available("svc") == []


def test_publisher_refresh_loop_at_epoch_origin():
    clock = ManualClock(origin=EPOCH)
    published = []
    channel = SimpleNamespace(
        publish=lambda node_id, payload: published.append(payload)
    )
    publisher = ServicePublisher(
        clock, channel, node_id=1, entries=[("svc", 0)],
        mean_interval=0.5, rng=np.random.default_rng(0),
    )
    publisher.start()
    assert len(published) == 1
    assert published[0][2] == EPOCH  # stamped with the offset clock
    clock.advance(5.0)  # jittered refresh interval is in [0.25, 0.75]
    assert 7 <= len(published) <= 21
    publisher.stop()
    before = len(published)
    clock.advance(5.0)
    assert len(published) == before  # silent after stop


# ----------------------------------------------------------------------
# retry token bucket: fresh buckets are full *now*, not at t=0
# ----------------------------------------------------------------------
def _engine(clock, **policy_kwargs):
    cluster = SimpleNamespace(sim=clock, servers=[])
    return ReliabilityEngine(cluster, ReliabilityPolicy(**policy_kwargs))


def test_retry_budget_fresh_bucket_at_negative_origin():
    # Regression: the bucket's default last-refill time was 0.0, so a
    # clock reading below zero "un-filled" a brand-new bucket.
    clock = ManualClock(origin=-100.0)
    engine = _engine(clock, retry_budget=2.0)
    assert engine._take_retry_token(client_id=7)
    assert engine._take_retry_token(client_id=7)
    assert not engine._take_retry_token(client_id=7)  # drained


def test_retry_budget_refills_with_elapsed_time_not_absolute_time():
    clock = ManualClock(origin=EPOCH)
    engine = _engine(clock, retry_budget=1.0)
    assert engine._take_retry_token(client_id=0)
    assert not engine._take_retry_token(client_id=0)
    clock.advance(0.5 / RETRY_BUDGET_REFILL)  # half a token back
    assert not engine._take_retry_token(client_id=0)
    clock.advance(0.6 / RETRY_BUDGET_REFILL)  # 1.1 tokens since the drain
    assert engine._take_retry_token(client_id=0)
    assert not engine._take_retry_token(client_id=0)


# ----------------------------------------------------------------------
# polling discard timer
# ----------------------------------------------------------------------
class _PollCtx:
    """Minimal policy context: records polls, lets the test answer them."""

    def __init__(self, clock, n_servers=4, discard_timeout=0.01):
        self.sim = clock
        self.constants = SimpleNamespace(discard_timeout=discard_timeout)
        self.telemetry = None
        self._servers = list(range(n_servers))
        self.pending = []  # (server_id, on_reply)
        self.dispatched = []

    def index_stream(self, name):
        return IndexStream(np.random.default_rng(0))

    def available_servers(self, client):
        return self._servers

    def poll_server(self, client, server_id, on_reply):
        self.pending.append((server_id, on_reply))

    def dispatch(self, client, request, server_id):
        self.dispatched.append(server_id)


def test_polling_discard_timer_at_epoch_origin():
    clock = ManualClock(origin=EPOCH)
    ctx = _PollCtx(clock)
    policy = RandomPollingPolicy(poll_size=3, discard_slow=True)
    policy.bind(ctx)
    policy.select(client=None, request=None)
    assert len(ctx.pending) == 3
    # One reply arrives; the discard timer then decides on it alone.
    sid, on_reply = ctx.pending[0]
    on_reply(sid, 2, clock.now)
    assert ctx.dispatched == []
    clock.advance(0.02)
    assert policy.timeouts_fired == 1
    assert ctx.dispatched == [sid]
    # Late replies are discarded, not double-dispatched.
    for other_sid, late in ctx.pending[1:]:
        late(other_sid, 0, clock.now)
    assert policy.replies_discarded == 2
    assert ctx.dispatched == [sid]


def test_polling_full_reply_set_cancels_discard_timer():
    clock = ManualClock(origin=EPOCH)
    ctx = _PollCtx(clock, n_servers=2)
    policy = RandomPollingPolicy(poll_size=2, discard_slow=True)
    policy.bind(ctx)
    policy.select(client=None, request=None)
    for sid, on_reply in list(ctx.pending):
        on_reply(sid, 1, clock.now)
    assert len(ctx.dispatched) == 1
    clock.advance(0.05)
    assert policy.timeouts_fired == 0  # cancelled, never fires
    assert len(ctx.dispatched) == 1


# ----------------------------------------------------------------------
# telemetry sampler: grid must be anchorable at the run's start
# ----------------------------------------------------------------------
def _sampler_cluster(clock):
    return SimpleNamespace(
        sim=clock,
        servers=[],
        network=SimpleNamespace(inflight_recorder=None, drops_recorder=None),
    )


def test_sampler_default_grid_is_bit_identical_from_zero():
    clock = ManualClock()
    clock.advance(1.0)
    series = sample_series(_sampler_cluster(clock), interval=0.25)
    np.testing.assert_array_equal(
        series["time"], np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    )


def test_sampler_start_anchors_grid_at_offset_origin():
    # Without `start`, a grid from 0 to an epoch-scale `now` would try
    # to materialize ~3.4e10 samples.
    clock = ManualClock(origin=EPOCH)
    clock.advance(1.0)
    series = sample_series(_sampler_cluster(clock), interval=0.25, start=EPOCH)
    assert series["time"].shape == (5,)
    np.testing.assert_allclose(series["time"] - EPOCH, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sampler_end_before_start_degenerates_to_one_sample():
    clock = ManualClock(origin=EPOCH)
    series = sample_series(
        _sampler_cluster(clock), interval=0.25, end_time=EPOCH - 5.0, start=EPOCH
    )
    np.testing.assert_array_equal(series["time"], np.array([EPOCH]))


# ----------------------------------------------------------------------
# switch egress ports: idle means idle at any origin
# ----------------------------------------------------------------------
def test_switch_idle_port_does_not_delay_at_negative_origin():
    # Regression: busy_until started at 0.0, so a clock reading below
    # zero made an idle port look busy until t=0.
    clock = ManualClock(origin=-50.0)
    switch = SwitchedEthernet(clock, n_ports=2, bandwidth_bps=100e6,
                              propagation=20e-6)
    message = Message(MessageKind.REQUEST, 0, 1, None, 512, clock.now)
    done = switch.transit(message, lambda m: None)
    expected = clock.now + 20e-6 + 512 * 8.0 / 100e6
    assert done == pytest.approx(expected)
    # the port is booked until then: an empty message waits it out
    empty = Message(MessageKind.REQUEST, 0, 1, None, 0, clock.now)
    assert switch.transit(empty, lambda m: None) == pytest.approx(done)


def test_switch_fifo_serialization_at_epoch_origin():
    clock = ManualClock(origin=EPOCH)
    switch = SwitchedEthernet(clock, n_ports=2, bandwidth_bps=100e6,
                              propagation=20e-6)
    ser = 512 * 8.0 / 100e6
    first = switch.transit(Message(MessageKind.REQUEST, 0, 1, None, 512, clock.now),
                           lambda m: None)
    second = switch.transit(Message(MessageKind.REQUEST, 0, 1, None, 512, clock.now),
                            lambda m: None)
    assert first == pytest.approx(EPOCH + 20e-6 + ser)
    assert second == pytest.approx(first + ser)  # queued behind the first

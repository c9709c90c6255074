"""Unit tests for the seeded message-level fault models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, Message, MessageKind, Network, NetworkFaults, UniformLatency
from repro.net.message import DEFAULT_SIZES
from repro.sim import Simulator, make_simulator
from tests.net.test_transport import StepLog


def make_network(latency=1e-4):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(latency))
    return sim, net


def install_faults(net, **kwargs):
    faults = NetworkFaults(np.random.default_rng(1), **kwargs)
    net.faults = faults
    return faults


def send_n(sim, net, n, src=0, dst=1, kind=MessageKind.REQUEST):
    delivered = []
    for i in range(n):
        net.send(kind, src, dst, i, delivered.append)
    sim.run()
    return delivered


def test_probability_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        NetworkFaults(rng, loss=1.5)
    with pytest.raises(ValueError):
        NetworkFaults(rng, duplicate=-0.1)
    with pytest.raises(ValueError):
        NetworkFaults(rng, jitter_mean=-1.0)
    with pytest.raises(ValueError):
        NetworkFaults(rng, per_kind={MessageKind.POLL: {"latency": 1.0}})


@pytest.mark.parametrize("jitter_mean", [float("nan"), float("inf")])
def test_a_non_finite_jitter_mean_is_refused(jitter_mean):
    """A NaN ``jitter_mean`` used to construct and mean "no jitter"."""
    with pytest.raises(ValueError, match=f"jitter_mean must be finite, got {jitter_mean}"):
        NetworkFaults(np.random.default_rng(0), jitter_mean=jitter_mean)
    with pytest.raises(ValueError, match=r"per_kind\[poll\] jitter_mean must be finite"):
        NetworkFaults(np.random.default_rng(0),
                      per_kind={MessageKind.POLL: {"jitter_mean": jitter_mean}})


@pytest.mark.parametrize(
    "override, message",
    [
        ({"loss": 2.0}, r"per_kind\[publish\] loss must be in \[0, 1\], got 2.0"),
        ({"loss": -0.1}, r"per_kind\[publish\] loss must be in \[0, 1\]"),
        ({"duplicate": 1.5}, r"per_kind\[publish\] duplicate must be in \[0, 1\], got 1.5"),
        ({"jitter_mean": -1.0}, r"per_kind\[publish\] jitter_mean must be >= 0, got -1.0"),
        ({"loss": 0.5, "jitter_mean": -1e-9}, r"per_kind\[publish\] jitter_mean must be >= 0"),
    ],
)
def test_per_kind_overrides_are_range_checked_at_construction(override, message):
    """An out-of-range override used to construct: loss=2.0 silently
    dropped every message of the kind, jitter_mean=-1.0 died inside the
    first send with numpy's ``scale < 0``."""
    with pytest.raises(ValueError, match=message):
        NetworkFaults(np.random.default_rng(0), per_kind={MessageKind.PUBLISH: override})
    in_range = {name: min(max(value, 0.0), 1.0) for name, value in override.items()}
    faults = NetworkFaults(np.random.default_rng(0), loss=0.25, per_kind={MessageKind.PUBLISH: in_range})
    assert faults.kind_params[MessageKind.PUBLISH] == (
        in_range.get("loss", 0.25), in_range.get("duplicate", 0.0), in_range.get("jitter_mean", 0.0)
    )


def test_no_faults_delivers_everything():
    sim, net = make_network()
    install_faults(net)
    delivered = send_n(sim, net, 50)
    assert len(delivered) == 50


def test_total_loss_drops_everything():
    sim, net = make_network()
    faults = install_faults(net, loss=1.0)
    delivered = send_n(sim, net, 30)
    assert delivered == []
    assert faults.total_lost() == 30
    assert net.dropped_counts[MessageKind.REQUEST] == 30


def test_total_duplication_delivers_twice():
    sim, net = make_network()
    faults = install_faults(net, duplicate=1.0)
    delivered = send_n(sim, net, 20)
    assert len(delivered) == 40
    assert faults.total_duplicated() == 20
    # duplicates are not new sends
    assert net.message_counts[MessageKind.REQUEST] == 20


def test_jitter_delays_delivery():
    sim, net = make_network(latency=1e-4)
    install_faults(net, jitter_mean=0.05)
    times = []
    for i in range(200):
        net.send(MessageKind.REQUEST, 0, 1, i, lambda m: times.append(sim.now))
    sim.run()
    extras = np.array(times) - 1e-4
    assert (extras >= -1e-12).all()
    assert extras.mean() == pytest.approx(0.05, rel=0.3)


def test_per_kind_override_silences_one_kind_only():
    sim, net = make_network()
    install_faults(net, per_kind={MessageKind.PUBLISH: {"loss": 1.0}})
    publishes = send_n(sim, net, 10, kind=MessageKind.PUBLISH)
    requests = send_n(sim, net, 10, kind=MessageKind.REQUEST)
    assert publishes == []
    assert len(requests) == 10


def test_partition_blocks_both_directions_at_send():
    sim, net = make_network()
    faults = install_faults(net)
    faults.add_partition({0, 1}, {2, 3})
    a = send_n(sim, net, 5, src=0, dst=2)
    b = send_n(sim, net, 5, src=3, dst=1)
    within = send_n(sim, net, 5, src=0, dst=1)
    assert a == [] and b == []
    assert len(within) == 5
    assert sum(faults.partition_drop_counts.values()) == 10


def test_partition_heal_restores_traffic():
    sim, net = make_network()
    faults = install_faults(net)
    pair = faults.add_partition({0}, {1})
    assert send_n(sim, net, 3) == []
    faults.remove_partition(pair)
    assert len(send_n(sim, net, 3)) == 3


def test_partition_activation_drops_in_flight_messages():
    sim, net = make_network(latency=0.01)
    faults = install_faults(net)
    delivered = []
    net.send(MessageKind.REQUEST, 0, 1, "x", delivered.append)
    # cut activates while the message is on the wire
    sim.at(0.005, lambda: faults.add_partition({0}, {1}))
    sim.run()
    assert delivered == []
    assert faults.in_flight_drop_counts[MessageKind.REQUEST] == 1


def test_crash_mid_flight_blocks_delivery():
    sim, net = make_network(latency=0.01)
    faults = install_faults(net)
    delivered = []
    net.send(MessageKind.REQUEST, 0, 1, "x", delivered.append)
    sim.at(0.005, lambda: faults.unreachable.add(1))
    sim.run()
    assert delivered == []


def test_unreachable_source_also_blocks():
    sim, net = make_network(latency=0.01)
    faults = install_faults(net)
    delivered = []
    net.send(MessageKind.RESPONSE, 1, 0, "x", delivered.append)
    sim.at(0.005, lambda: faults.unreachable.add(1))
    sim.run()
    assert delivered == []


def test_partition_group_validation():
    faults = NetworkFaults(np.random.default_rng(0))
    with pytest.raises(ValueError):
        faults.add_partition([], [1])
    with pytest.raises(ValueError):
        faults.add_partition([1, 2], [2, 3])


def test_drop_filter_runs_before_faults_and_consumes_no_rng():
    """Deterministic drops (crash filter) must not perturb the fault
    RNG stream — the composability contract."""
    sim, net = make_network()
    install_faults(net, loss=0.5)
    net.drop_filter = lambda m: m.dst == 9
    send_n(sim, net, 20, dst=9)  # all filter-dropped
    state_after_filtered = net.faults.rng.bit_generator.state["state"]

    sim2, net2 = make_network()
    install_faults(net2, loss=0.5)
    state_fresh = net2.faults.rng.bit_generator.state["state"]
    assert state_after_filtered == state_fresh


def test_deliver_trace_fires_only_on_actual_deliveries():
    sim, net = make_network()
    install_faults(net, loss=1.0, per_kind={MessageKind.POLL: {"loss": 0.0}})
    traced = []
    net.deliver_trace = traced.append
    send_n(sim, net, 5, kind=MessageKind.REQUEST)  # all lost
    delivered = send_n(sim, net, 5, kind=MessageKind.POLL)
    assert len(delivered) == 5
    assert len(traced) == 5
    assert all(m.kind is MessageKind.POLL for m in traced)


def test_fixed_seed_fault_decisions_are_reproducible():
    outcomes = []
    for _ in range(2):
        sim, net = make_network()
        faults = install_faults(net, loss=0.3, duplicate=0.3, jitter_mean=0.001)
        delivered = send_n(sim, net, 100)
        outcomes.append((len(delivered), faults.total_lost(), faults.total_duplicated()))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# the chaos verdict made in Network.send / Network._deliver equals the
# NetworkFaults.on_send / blocks_delivery pair it replaced
# ----------------------------------------------------------------------
class ReferenceFaults(NetworkFaults):
    """``NetworkFaults`` with the two deleted per-message methods, kept
    here as the reference the in-frame verdict is held against."""

    __slots__ = ()

    def on_send(self, message):
        kind = message.kind
        if self.partitions and self.severed(message.src, message.dst):
            self.partition_drop_counts[kind] = self.partition_drop_counts.get(kind, 0) + 1
            return None
        loss, duplicate, jitter_mean = self.kind_params.get(kind, self.default_params)
        if loss > 0.0 and self.rng.random() < loss:
            self.lost_counts[kind] = self.lost_counts.get(kind, 0) + 1
            return None
        jitter = float(self.rng.exponential(jitter_mean)) if jitter_mean > 0.0 else 0.0
        duplicated = bool(duplicate > 0.0 and self.rng.random() < duplicate)
        if duplicated:
            self.duplicated_counts[kind] = self.duplicated_counts.get(kind, 0) + 1
        return jitter, duplicated

    def blocks_delivery(self, message):
        unreachable = self.unreachable
        if (
            message.dst in unreachable
            or message.src in unreachable
            or (self.partitions and self.severed(message.src, message.dst))
        ):
            kind = message.kind
            self.in_flight_drop_counts[kind] = self.in_flight_drop_counts.get(kind, 0) + 1
            return True
        return False


class ReferenceNetwork(Network):
    """``Network`` with the replaced ``send`` / ``_deliver`` bodies:
    the verdict is asked of the faults object, one call each."""

    __slots__ = ()

    def send(self, kind, src, dst, payload, on_delivery, size_bytes=None, extra_delay=0.0):
        size = DEFAULT_SIZES[kind] if size_bytes is None else size_bytes
        message = Message(kind, src, dst, payload, size, self.sim.now)
        self.message_counts[kind] = self.message_counts.get(kind, 0) + 1
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + size
        if self.drop_filter is not None and self.drop_filter(message):
            self.dropped_counts[kind] = self.dropped_counts.get(kind, 0) + 1
            self._note_drop()
            return message
        verdict = self.faults.on_send(message)
        if verdict is None:
            self.dropped_counts[kind] = self.dropped_counts.get(kind, 0) + 1
            self._note_drop()
            return message
        jitter, duplicated = verdict
        extra_delay += jitter
        model = self.latency_for(kind)
        self._schedule_delivery(model.sample(self.rng) + extra_delay, message, on_delivery)
        if duplicated:
            self._schedule_delivery(model.sample(self.rng) + extra_delay, message, on_delivery)
        return message

    def _deliver(self, pair):
        on_delivery, message = pair
        recorder = self.inflight_recorder
        if recorder is not None:
            self._inflight -= 1
            recorder.record(self.sim.now, float(self._inflight))
        if self.faults.blocks_delivery(message):
            self._note_drop()
            return
        if self.deliver_trace is not None:
            self.deliver_trace(message)
        on_delivery(message)


NODES = st.integers(0, 5)
KINDS = st.sampled_from([MessageKind.REQUEST, MessageKind.POLL, MessageKind.PUBLISH, MessageKind.RESPONSE])
PROBABILITY = st.sampled_from([0.0, 0.0, 0.2, 0.5, 1.0])
JITTER = st.sampled_from([0.0, 0.0, 1e-4, 5e-3])
PARAMS = st.fixed_dictionaries(
    {}, optional={"loss": PROBABILITY, "duplicate": PROBABILITY, "jitter_mean": JITTER}
)
GROUPS = st.sets(NODES, min_size=2, max_size=6).flatmap(
    lambda nodes: st.integers(1, len(nodes) - 1).map(
        lambda cut: (sorted(nodes)[:cut], sorted(nodes)[cut:])
    )
)
STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e-4, 2e-3]),  # time since the previous step
        st.one_of(
            st.tuples(st.just("send"), KINDS, NODES, NODES),
            st.tuples(st.just("send"), KINDS, NODES, NODES),
            st.tuples(st.just("cut"), GROUPS),
            st.tuples(st.just("heal")),
            st.tuples(st.just("die"), NODES),
            st.tuples(st.just("recover"), NODES),
        ),
    ),
    min_size=1,
    max_size=60,
)


def play(network_cls, faults_cls, engine, seed, defaults, per_kind, steps, stochastic, telemetry):
    sim = make_simulator(engine)
    latency = UniformLatency(1e-4, 3e-3) if stochastic else ConstantLatency(1e-3)
    net = network_cls(sim, np.random.default_rng(seed), latency)
    faults = net.faults = faults_cls(np.random.default_rng(seed + 1), per_kind=per_kind, **defaults)
    if telemetry:
        net.inflight_recorder, net.drops_recorder = StepLog(), StepLog()
    log, cuts = [], []

    def step(action):
        name, *args = action
        if name == "send":
            kind, src, dst = args
            net.send(kind, src, dst, len(log), lambda m: log.append((m.dst, sim.now, m.payload)))
        elif name == "cut":
            cuts.append(faults.add_partition(*args[0]))
        elif name == "heal" and cuts:
            faults.remove_partition(cuts.pop(0))
        elif name == "die":
            faults.unreachable.add(args[0])
        elif name == "recover":
            faults.unreachable.discard(args[0])

    at = 0.0
    for gap, action in steps:
        at += gap
        sim.at(at, step, action)
    sim.run()
    return {
        "log": log,
        "message": net.message_counts, "byte": net.byte_counts, "dropped": net.dropped_counts,
        "lost": faults.lost_counts, "duplicated": faults.duplicated_counts,
        "partition_drop": faults.partition_drop_counts, "in_flight_drop": faults.in_flight_drop_counts,
        "fault_rng": faults.rng.bit_generator.state, "latency_rng": net.rng.bit_generator.state,
        "telemetry": telemetry and (net.inflight_recorder.points, net.drops_recorder.points),
        "events": sim.events_executed,
    }


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 2),
    defaults=PARAMS,
    per_kind=st.dictionaries(KINDS, PARAMS, max_size=2),
    steps=STEPS,
    stochastic=st.booleans(),
    telemetry=st.booleans(),
)
def test_in_frame_chaos_verdict_equals_the_replaced_methods(
    engine, seed, defaults, per_kind, steps, stochastic, telemetry
):
    script = (engine, seed, defaults, per_kind, steps, stochastic, telemetry)
    assert play(Network, NetworkFaults, *script) == play(ReferenceNetwork, ReferenceFaults, *script)


def test_scaled_standard_exponential_is_the_exponential_draw():
    """``jitter_mean * standard_exponential()`` is the double
    ``exponential(jitter_mean)`` returns, draw for draw."""
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    for mean in (1e-4, 5e-3, 0.05, 1.0, 3.7):
        for _ in range(40_000):
            assert mean * a.standard_exponential() == float(b.exponential(mean))
    assert a.bit_generator.state == b.bit_generator.state

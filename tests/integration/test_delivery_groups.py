"""Same-instant delivery groups leave a full cluster run untouched.

A channel publish rides one scheduler event when every recipient
arrives at the same instant (``Network.multicast``). Swapping the
BROADCAST latency for a model with the same value that is not a
``ConstantLatency`` forces the one-event-per-recipient path, which is
the reference here: every per-request array, message count and policy
counter must be byte-equal, on both exact engines.
"""

import numpy as np
import pytest

from repro.cluster import ServiceCluster
from repro.core import make_policy
from repro.experiments import SimulationConfig, assemble, run_simulation
from repro.net import MessageKind, UniformLatency

N_REQUESTS = 1500
N_CLIENTS = 4


def run_broadcast_cell(engine, per_recipient):
    policy = make_policy("broadcast", mean_interval=0.01)
    cluster = ServiceCluster(
        n_servers=12, policy=policy, seed=5, n_clients=N_CLIENTS, engine=engine
    )
    if per_recipient:
        value = cluster.network.latency_for(MessageKind.BROADCAST).value
        cluster.network.set_latency(MessageKind.BROADCAST, UniformLatency(value, value))
    rng = np.random.default_rng(5)
    assemble(
        cluster,
        rng.exponential(0.01 / (12 * 0.9), N_REQUESTS), rng.exponential(0.01, N_REQUESTS),
    )
    return cluster, policy, cluster.run()


@pytest.mark.parametrize("engine", ["heap", "calendar"])
def test_grouped_cell_is_byte_equal_to_per_recipient_cell(engine):
    grouped, policy_g, metrics_g = run_broadcast_cell(engine, per_recipient=False)
    single, policy_s, metrics_s = run_broadcast_cell(engine, per_recipient=True)
    for name in type(metrics_g).__slots__:
        if name != "n":
            a, b = getattr(metrics_g, name), getattr(metrics_s, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert grouped.network.message_counts == single.network.message_counts
    assert grouped.network.byte_counts == single.network.byte_counts
    assert policy_g.broadcasts_sent == policy_s.broadcasts_sent
    # Both runs stop inside the same response event, so the only
    # difference is k-1 events for each group that was delivered.
    saved = single.sim.events_executed - grouped.sim.events_executed
    assert saved > 0 and saved % (N_CLIENTS - 1) == 0
    assert saved // (N_CLIENTS - 1) <= policy_g.broadcasts_sent


@pytest.mark.parametrize("engine", ["heap", "calendar"])
def test_telemetry_executes_the_same_events_on_a_broadcast_cell(engine):
    base = SimulationConfig(
        policy="broadcast", policy_params={"mean_interval": 0.01},
        n_servers=12, n_requests=800, seed=9, engine=engine,
    )
    off = run_simulation(base)
    on = run_simulation(base.with_updates(telemetry={"spans": True}))
    assert off.events_executed == on.events_executed
    assert off.mean_response_time == on.mean_response_time
    assert off.message_counts == on.message_counts
    assert off.policy_counters == on.policy_counters
    assert off.server_counts == on.server_counts

"""One way in: ``ServiceCluster`` builds the paper's cluster, and every
optional subsystem enters through its module's ``install``.

- ``ServiceCluster.__init__`` takes the paper's arguments and the
  request lifecycle's own (timeout, retries, queue bound), nothing else;
- no ``Subsystem`` row, no ``LiveCluster`` keyword and no
  ``_init_lifecycle`` parameter builds a subsystem: every keyword of
  both transports, set away from its default, leaves every slot empty;
- ``INSTALL_ORDER`` is the construction order bit identity depends on,
  each entry a module-level ``install(cluster, **knobs)``, and
  ``assemble`` runs it: a non-empty but disabled policy installs nothing.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import locate
from repro.cluster import ServiceCluster
from repro.cluster.system import RequestLifecycle
from repro.core import make_policy
from repro.experiments.config import INSTALL_ORDER, SUBSYSTEMS, Subsystem
from repro.experiments.runner import assemble
from repro.live.client import LiveCluster
from repro.live.clock import WallClock
from repro.live.faults import LoopbackFaults
from repro.net import PAPER_NET
from repro.prototype import PrototypeOverheadModel

SLOTS = [row.attr for row in SUBSYSTEMS.values()]


def _params(function) -> list[str]:
    return [name for name in inspect.signature(function).parameters if name != "self"]


def test_service_cluster_takes_the_papers_arguments_and_the_lifecycles():
    paper = ["n_servers", "policy", "seed", "n_clients", "constants", "overhead",
             "workers", "server_speeds", "record_server_queues"]
    lifecycle = ["request_timeout", "max_retries", "server_max_queue"]
    assert _params(ServiceCluster.__init__) == [*paper, *lifecycle, "engine"]


def test_init_lifecycle_and_subsystem_rows_build_no_subsystem():
    assert _params(RequestLifecycle._init_lifecycle) == [
        "policy", "request_timeout", "max_retries"]
    assert Subsystem._fields == ("owner", "attr", "tag", "fast_refusal", "counters", "mode")


def test_no_constructor_keyword_fills_a_slot():
    simulated = ServiceCluster(
        n_servers=3, policy=make_policy("random"), seed=1, n_clients=2,
        constants=PAPER_NET, overhead=PrototypeOverheadModel(), workers=2,
        server_speeds=[1.0, 2.0, 1.0], record_server_queues=True,
        request_timeout=0.5, max_retries=2, server_max_queue=4, engine="calendar",
    )
    assert _params(LiveCluster.__init__) == [
        "server_addrs", "policy", "clock", "seed", "n_clients", "request_timeout",
        "max_retries", "availability", "availability_ttl", "workers_per_server", "faults"]
    clock = WallClock()
    try:
        live = LiveCluster(
            {0: ("127.0.0.1", 9)}, make_policy("random"), clock, seed=1, n_clients=2,
            request_timeout=0.1, max_retries=2, availability=True, availability_ttl=1.0,
            workers_per_server=2, faults=LoopbackFaults(np.random.default_rng(0)),
        )
    finally:
        clock.close()
    for cluster in (simulated, live):
        assert [getattr(cluster, slot) for slot in SLOTS] == [None] * len(SLOTS)
    assert not simulated.availability_enabled and not simulated.publishers


def test_install_order_is_the_construction_order():
    assert list(INSTALL_ORDER) == [
        "dispatchers", "autoscaler", "availability", "overload", "reliability",
        "workload", "chaos", "telemetry", "oracle"]
    assert set(SLOTS) < set(INSTALL_ORDER)
    for slot, target in INSTALL_ORDER.items():
        if slot != "workload":
            assert target.endswith(":install"), slot
            assert _params(locate(target))[0] == "cluster", slot


def _run(seed=4, **knobs):
    cluster = ServiceCluster(n_servers=4, policy=make_policy("polling"), seed=seed,
                             request_timeout=0.5)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(0.01 / (4 * 0.7), 300)
    services = rng.exponential(0.01, 300)
    return assemble(cluster, gaps, services, **knobs)


def test_a_non_empty_but_disabled_policy_installs_nothing():
    plain = _run()
    disabled = _run(
        dispatchers={"count": None}, autoscaler={"interval": None},
        overload={"sojourn_target": None}, reliability={"hedge_quantile": None},
        oracle={"enabled": False},
    )
    assert [getattr(disabled, slot) for slot in SLOTS] == [None] * len(SLOTS)
    a, b = plain.run(), disabled.run()
    assert a.response_time.tobytes() == b.response_time.tobytes()
    assert plain.sim.events_executed == disabled.sim.events_executed


def test_assemble_refuses_an_unknown_slot_and_the_workload_step():
    for name in ("dispatcher", "workload"):
        with pytest.raises(ValueError, match="unknown subsystem"):
            _run(**{name: {}})


def test_the_refusals_still_raise():
    with pytest.raises(ValueError, match="autoscaler requires availability"):
        _run(autoscaler={"interval": 0.1})
    clock = WallClock()
    try:
        live = LiveCluster({0: ("127.0.0.1", 9)}, make_policy("random"), clock)
        with pytest.raises(ValueError, match="hedged requests are not supported"):
            assemble(live, np.full(2, 0.01), np.full(2, 0.01),
                     reliability={"hedge_quantile": 0.9})
    finally:
        clock.close()

"""Substrate validation: constant latency vs. an explicit switch model.

The paper treats its Lucent P550 as a constant-latency fabric. This
bench re-runs a polling experiment with the switched-Ethernet model
(per-port FIFO egress + serialization at 100 Mb/s) layered under the
same protocol-stack latencies, and checks the abstraction: at the
paper's message rates the switch adds only serialization-scale delay,
leaving mean response times essentially unchanged.
"""

from benchmarks.conftest import scaled
from repro.cluster.system import ServiceCluster
from repro.core.registry import make_policy
from repro.experiments.results import ResultTable
from repro.net import SwitchedEthernet
from repro.sim.rng import RngHub
from repro.workload.workloads import make_workload

LOAD = 0.9
N_SERVERS = 16
N_CLIENTS = 6


def _run(n_requests: int, with_switch: bool, poll_size: int) -> float:
    cluster = ServiceCluster(
        n_servers=N_SERVERS,
        policy=make_policy("polling", poll_size=poll_size),
        seed=0,
        n_clients=N_CLIENTS,
    )
    if with_switch:
        cluster.network.switch = SwitchedEthernet(
            cluster.sim,
            n_ports=N_SERVERS + N_CLIENTS,
            bandwidth_bps=100e6,
            propagation=0.0,  # propagation already inside the constants
        )
    workload = make_workload("fine_grain")
    gaps, services = workload.generate(RngHub(0).stream("workload"), n_requests)
    target = float(services.mean()) / (N_SERVERS * LOAD)
    cluster.load_workload(gaps * (target / float(gaps.mean())), services)
    metrics = cluster.run()
    return metrics.summary(0.1)["mean_response_time"]


def test_switch_abstraction(report):
    n = scaled(15_000)

    results = {
        (with_switch, d): _run(n, with_switch, d)
        for with_switch in (False, True)
        for d in (2, 8)
    }

    table = ResultTable(["poll_size", "constant_ms", "switched_ms", "delta"])
    for d in (2, 8):
        constant = results[(False, d)]
        switched = results[(True, d)]
        table.add(poll_size=d, constant_ms=constant * 1e3,
                  switched_ms=switched * 1e3,
                  delta=switched / constant - 1.0)
    report(
        "ablation_switch",
        "== Constant-latency vs switched-Ethernet substrate "
        "(fine-grain, 90%) ==\n" + table.render(),
    )

    # The paper's abstraction holds: explicit contention changes mean
    # response by well under 10% even at d=8 message rates.
    for d in (2, 8):
        delta = abs(results[(True, d)] / results[(False, d)] - 1.0)
        assert delta < 0.10, (d, delta)

"""§5 ablation: what a faster network (VI Architecture / RDMA) changes.

The paper predicts: "a high-performance network layer may allow
efficient and high frequency server broadcasts, which improves the
feasibility of the broadcast policy [... and] the overhead of the
random polling policy with a large poll size might not be as severe".
We scale the measured latency constants down 10x and check both
predictions on the simulation model (where network latency is the only
overhead a faster fabric removes).
"""

from dataclasses import replace

from benchmarks.conftest import scaled
from repro.cluster.system import ServiceCluster
from repro.core.registry import make_policy
from repro.experiments import SimulationConfig
from repro.experiments.results import ResultTable
from repro.net import PAPER_NET
from repro.sim.rng import RngHub
from repro.workload.workloads import make_workload

FAST_NET = replace(
    PAPER_NET,
    request_response_total=PAPER_NET.request_response_total / 10,
    udp_rtt=PAPER_NET.udp_rtt / 10,
    tcp_rtt_nosetup=PAPER_NET.tcp_rtt_nosetup / 10,
)

CASES = [
    ("broadcast 5ms", "broadcast", {"mean_interval": 0.005}),
    ("polling d=2", "polling", {"poll_size": 2}),
    ("polling d=8", "polling", {"poll_size": 8}),
    ("ideal", "ideal", {}),
]


def _run(config: SimulationConfig, constants) -> float:
    """Mean response time for a config under custom network constants.

    (The standard runner pins constants to the paper's values, so this
    bench builds the cluster directly.)
    """
    workload = make_workload(config.workload, **config.workload_params)
    hub = RngHub(config.seed)
    gaps, services = workload.generate(hub.stream("workload"), config.n_requests)
    target = float(services.mean()) / (config.n_servers * config.load)
    gaps = gaps * (target / float(gaps.mean()))
    cluster = ServiceCluster(
        n_servers=config.n_servers,
        policy=make_policy(config.policy, **config.policy_params),
        seed=config.seed,
        n_clients=config.n_clients,
        constants=constants,
    )
    cluster.load_workload(gaps, services)
    metrics = cluster.run()
    return metrics.summary(config.warmup_fraction)["mean_response_time"]


def test_network_speed(report):
    # A fine-grain setting where message latency actually matters:
    # 2 ms services make the 516 µs / 290 µs constants a visible cost.
    base = SimulationConfig(
        workload="poisson_exp", workload_params={"mean_service": 2e-3},
        load=0.9, n_servers=16, n_requests=scaled(20_000), seed=0,
    )

    results = {}
    for label, policy, params in CASES:
        config = base.with_updates(policy=policy, policy_params=params)
        results[(label, "paper")] = _run(config, PAPER_NET)
        results[(label, "10x")] = _run(config, FAST_NET)

    table = ResultTable(["policy", "paper_net_ms", "fast_net_ms", "speedup"])
    for label, _, _ in CASES:
        paper_ms = results[(label, "paper")] * 1e3
        fast_ms = results[(label, "10x")] * 1e3
        table.add(policy=label, paper_net_ms=paper_ms, fast_net_ms=fast_ms,
                  speedup=paper_ms / fast_ms)
    report(
        "ablation_network_speed",
        "== §5: 10x faster network (2ms services, 90% load) ==\n" + table.render(),
    )

    # Every policy benefits; message-dependent policies benefit at least
    # as much as the oracle (which only pays request/response latency).
    for label, _, _ in CASES:
        assert results[(label, "10x")] < results[(label, "paper")]
    poll8_gain = results[("polling d=8", "paper")] / results[("polling d=8", "10x")]
    ideal_gain = results[("ideal", "paper")] / results[("ideal", "10x")]
    assert poll8_gain > ideal_gain * 0.95

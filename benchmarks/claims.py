"""The paper's claims and the ablations beyond it as one verdict table:
one row per claim.

    python benchmarks/claims.py          # full size, seeds 0 1 2 (~10 min on 2 vCPUs)
    python benchmarks/claims.py --quick  # small grids, seed 0 (tier-1 runs this)

Each row names its driver (a builtin spec, a function of
``repro.experiments.figures``, or one of the ablation drivers below),
the seeds and size it ran, a shape check over the driver's table and a
committed verdict in the status-guide form:

- READY: every assertion of the check holds on every seed;
- PARTIAL: the claim holds in direction but not in size (the row's
  ``partial`` check holds where ``ready`` does not);
- FAILS: neither;
- TEMPLATE: another ROADMAP item will supply the check; nothing runs.

A row's measured verdict is its worst over the seeds. The script prints
the table and exits 1 when a row measures below its committed verdict.
A full-size run also writes the table (``claims.txt``) and the seed-0
report of every driver to ``benchmarks/output/``; a rerun writes the
same bytes.

A ``--quick`` run shrinks each driver to the cells its rows read and to
fewer requests, and holds them to the full-size bands: every band below
holds at ``--quick`` on seeds 0 to 3 with one exception, Table 1's
medium-grain std on seed 3 (75.6 ms on a 60 000-request trace).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis import eq1_upperbound, supermarket_mean_response_time  # noqa: E402
from repro.cluster import ServiceCluster  # noqa: E402
from repro.core import make_policy  # noqa: E402
from repro.experiments import (  # noqa: E402
    SimulationConfig, figures, parallel_sweep, run_simulation)
from repro.experiments.results import ResultTable  # noqa: E402
from repro.experiments.runner import assemble, full_load_rho_for  # noqa: E402
from repro.experiments.scenario import builtin_spec  # noqa: E402
from repro.net import PAPER_NET, SwitchedEthernet  # noqa: E402
from repro.workload import request_stream  # noqa: E402

OUTPUT = ROOT / "benchmarks" / "output"
VERDICTS = ("FAILS", "PARTIAL", "READY")
#: the paper's panels, fine-grain first: a row's first assertion is its headline
WORKLOADS = figures.PAPER_WORKLOADS[::-1]

#: one driver run: ``(table rows, rendered report)``
Output = tuple[list[dict], str]


@dataclass(frozen=True)
class Driver:
    """A builtin spec or a ``figures`` function, with its two sizes.
    ``full`` and ``quick`` are keyword arguments; the seed is added."""

    name: str
    run: Callable[..., Output]
    full: dict
    quick: dict

    def kwargs(self, quick: bool) -> dict:
        return self.quick if quick else self.full

    def size(self, quick: bool) -> str:
        kwargs = self.kwargs(quick)
        n = kwargs.get("n_requests", kwargs.get("n"))
        return "whole traces" if n is None else f"{n:,} req".replace(",", " ")


def _spec(name: str, **kwargs) -> Output:
    report = builtin_spec(name, **kwargs).run()
    return report.table.rows, report.render()


def _table1(**kwargs) -> Output:
    data = figures.table1_traces(**kwargs)
    targets = [
        f"  {spec.name:<20s} service {spec.service_time_mean * 1e3:5.1f}/"
        f"{spec.service_time_std * 1e3:5.1f} ms"
        for spec in data.extras["specs"]
    ]
    return data.table.rows, "\n".join([data.render(), "published targets:", *targets])


def _figure2(**kwargs) -> Output:
    data = figures.figure2_inaccuracy(**kwargs)
    bounds = "  ".join(
        f"rho={load:g}: {bound:.2f}" for load, bound in data.extras["upperbound"].items()
    )
    return data.table.rows, f"{data.render()}\nEq. 1 bound 2rho/(1-rho^2): {bounds}"


def _poll_profile(**kwargs) -> Output:
    profile, result = figures.poll_profile_section32(**kwargs)
    text = (
        "== §3.2 poll profile (d=3, 90% load, 16 servers) ==\n"
        f"{profile.row()}\n"
        "paper: >10ms: 8.10%   >20ms: 5.60%\n"
        f"(nominal rho at this operating point: {result.nominal_rho:.3f})"
    )
    return [vars(profile)], text


def _figure6(**kwargs) -> Output:
    """The fig6 table plus one ``sim-ideal`` row per manager cell: the
    simulation model's ideal at the same offered work (load x the
    prototype's ``full_load_rho``), which the manager should track."""
    report = builtin_spec("fig6", **kwargs).run()
    rows = list(report.table.rows)
    for cell_, result in zip(report.cells, report.results):
        config = result.config
        if config.policy == "manager":
            ideal = run_simulation(config.with_updates(
                policy="ideal", model="simulation", load=config.load * config.full_load_rho))
            rows.append({"workload": cell_.workload, "load": config.load, "policy": "sim-ideal",
                         "response_ms": ideal.mean_response_time * 1e3})
    return rows, report.render()


# ----------------------------------------------------------------------
# the ablations beyond the paper: one driver each, seeded like the rest
# ----------------------------------------------------------------------

def _table(title: str, rows: list[dict]) -> Output:
    table = ResultTable(list(rows[0]))
    for row in rows:
        table.add(**row)
    return table.rows, f"== {title} ==\n{table.render()}"


def _sweep(cells: list[tuple[dict, SimulationConfig]], **columns) -> list[dict]:
    """One row per ``(labels, config)`` cell: its labels, ``response_ms``
    and each ``column=f(result)``."""
    results = parallel_sweep([config for _, config in cells])
    return [{**labels, "response_ms": result.mean_response_time_ms,
             **{name: f(result) for name, f in columns.items()}}
            for (labels, _), result in zip(cells, results)]


def _hand_built(policy, seed: int, n_requests: int, *, workload: str = "poisson_exp",
                params: Optional[dict] = None, n_servers: int = 16, load: float = 0.9,
                switch: bool = False, **cluster_kwargs):
    """``(cluster, metrics)`` of a cluster the runner cannot build
    (bounded queues, other network constants, an explicit switch), fed
    the runner's own request stream for the same seed."""
    policy_name, policy_params = policy
    cluster = ServiceCluster(n_servers=n_servers,
                             policy=make_policy(policy_name, **policy_params),
                             seed=seed, **cluster_kwargs)
    if switch:  # the protocol-stack constants already hold the propagation
        cluster.network.switch = SwitchedEthernet(
            cluster.sim, n_ports=n_servers + cluster.n_clients, bandwidth_bps=100e6,
            propagation=0.0)
    assemble(cluster, *request_stream(workload, params or {}, seed, n_requests,
                                      n_servers, load))
    return cluster, cluster.run()


POLL2 = ("polling", {"poll_size": 2})
#: the admission driver's queue bounds, by label
ADMISSION_BOUNDS = {"unbounded": None, "max_queue=20": 20, "max_queue=50": 50}
FAST_NET = replace(
    PAPER_NET,
    request_response_total=PAPER_NET.request_response_total / 10,
    udp_rtt=PAPER_NET.udp_rtt / 10,
    tcp_rtt_nosetup=PAPER_NET.tcp_rtt_nosetup / 10,
)
STALE_AGES = (0.001, 0.01, 0.05, 0.2, 1.0)
DISCARD_THRESHOLDS = (0.5e-3, 2e-3, 5e-3, 10e-3, 30e-3, 100e-3)


def _admission(seed: int, n_requests: int) -> Output:
    """Poll-2 with slow-poll discard at 150% of capacity (8 servers, 20 ms
    exponential service): unbounded queues against bounded ones, whose
    refusals are retried up to 4 times; goodput is completion within 2 s."""
    rows = []
    for label, bound in ADMISSION_BOUNDS.items():
        cluster, metrics = _hand_built(
            ("polling", {"poll_size": 2, "discard_slow": True}), seed, n_requests,
            params={"mean_service": 0.02}, n_servers=8, load=1.5,
            server_max_queue=bound, max_retries=4)
        response = metrics.response_time
        accepted = response[np.isfinite(response)]
        rows.append({"policy": label,
                     "goodput_fraction": float(np.mean(response <= 2.0)),
                     "shed_fraction": float(metrics.failed.mean()),
                     "accepted_mean_ms": float(accepted.mean() * 1e3),
                     "accepted_p99_ms": float(np.percentile(accepted, 99) * 1e3),
                     "rejections": sum(server.rejected_count for server in cluster.servers)})
    return _table("Admission control at 150% offered load (goodput = completed within 2s)",
                  rows)


def _burstiness(seed: int, n_requests: int) -> Output:
    arrivals = {"poisson": ("poisson_exp", {}),
                "mmpp 5:1": ("mmpp_exp", {"burst_ratio": 5.0, "sojourn": 1.0})}
    policies = {"random": ("random", {}), "poll-2": POLL2, "ideal": ("ideal", {})}
    rows = _sweep([
        ({"arrivals": label, "policy": p_label},
         SimulationConfig(workload=workload, workload_params=params, policy=policy,
                          policy_params=p_params, load=0.8, n_requests=n_requests, seed=seed))
        for label, (workload, params) in arrivals.items()
        for p_label, (policy, p_params) in policies.items()
    ])
    return _table("Arrival burstiness (80% load, 16 servers)", rows)


def _discard_threshold(seed: int, n_requests: int) -> Output:
    base = SimulationConfig(workload="fine_grain", load=0.9, n_requests=n_requests, seed=seed,
                            model="prototype")
    base = base.with_updates(full_load_rho=full_load_rho_for(base))
    discards = [(t, {"discard_slow": True, "discard_timeout": t}) for t in DISCARD_THRESHOLDS]
    rows = _sweep([
        ({"threshold_ms": threshold * 1e3},
         base.with_updates(policy="polling", policy_params={"poll_size": 3, **discard}))
        for threshold, discard in (*discards, (float("inf"), {}))
    ], poll_ms=lambda result: result.mean_poll_time_ms)
    return _table("Discard-threshold sweep (fine-grain, d=3, 90%)", rows)


def _heterogeneous(seed: int, n_requests: int) -> Output:
    """Eight 2.0-speed and eight 1.0-speed servers. The runner sets load
    against unit speed, so load 1.25 is 0.83 of the mean speed of 1.5."""
    policies = {
        "random": ("random", {}),
        "poll-2": POLL2,
        "poll-2-weighted": ("polling", {"poll_size": 2, "weight_by_speed": True}),
        "ideal": ("ideal", {}),
        "ideal-weighted": ("ideal", {"weight_by_speed": True}),
    }
    rows = _sweep([
        ({"policy": label},
         SimulationConfig(workload="poisson_exp", policy=policy, policy_params=params,
                          load=1.25, n_requests=n_requests, seed=seed,
                          server_speeds=(2.0,) * 8 + (1.0,) * 8))
        for label, (policy, params) in policies.items()
    ], fast_server_share=lambda result: sum(result.server_counts[:8])
        / sum(result.server_counts))
    return _table("Heterogeneous servers (8x 2.0-speed + 8x 1.0-speed)", rows)


def _modern(seed: int, n_requests: int) -> Output:
    workloads = {"2ms exp": ("poisson_exp", {"mean_service": 2e-3}),
                 "50ms exp": ("poisson_exp", {"mean_service": 50e-3}),
                 "fine-grain trace": ("fine_grain", {})}
    policies = {"random": ("random", {}), "least-conn": ("least_connections", {}),
                "jiq": ("jiq", {}), "poll-2": POLL2, "ideal": ("ideal", {})}
    rows = _sweep([
        ({"workload": label, "policy": p_label},
         SimulationConfig(workload=workload, workload_params=params, policy=policy,
                          policy_params=p_params, load=0.9, n_requests=n_requests, seed=seed))
        for label, (workload, params) in workloads.items()
        for p_label, (policy, p_params) in policies.items()
    ])
    for row in rows:
        row["vs_ideal"] = row["response_ms"] / cell(rows, "response_ms",
                                                    workload=row["workload"], policy="ideal")
    return _table("Modern successors at 90% load (simulation model)", rows)


def _network_speed(seed: int, n_requests: int) -> Output:
    """2 ms exponential services at 90% load, where the 516 us / 290 us
    constants are a visible cost, on the paper's network and on one 10x
    faster (§5's VI Architecture prediction)."""
    cases = {"broadcast 5ms": ("broadcast", {"mean_interval": 0.005}), "polling d=2": POLL2,
             "polling d=8": ("polling", {"poll_size": 8}), "ideal": ("ideal", {})}
    rows = []
    for label, policy in cases.items():
        paper, fast = (
            _hand_built(policy, seed, n_requests, params={"mean_service": 2e-3},
                        constants=net)[1].summary(0.1)["mean_response_time"] * 1e3
            for net in (PAPER_NET, FAST_NET))
        rows.append({"policy": label, "paper_net_ms": paper, "fast_net_ms": fast,
                     "speedup": paper / fast})
    return _table("§5: 10x faster network (2ms services, 90% load)", rows)


def _stale_info(seed: int, n_requests: int) -> Output:
    """Stale-snapshot JSQ at each refresh period, with and without the
    clients' local increments, against random and poll-2 (poisson_exp, 90%)."""
    rows = _sweep([
        *(({"policy": "stale_jsq" + ("+local" if local else ""), "info_age_s": age},
           SimulationConfig(policy="stale_jsq", policy_params={
               "update_interval": age, **({"local_increment": True} if local else {})},
               load=0.9, n_requests=n_requests, seed=seed))
          for local in (False, True) for age in STALE_AGES),
        *(({"policy": label, "info_age_s": None},
           SimulationConfig(policy=policy, policy_params=params, load=0.9,
                            n_requests=n_requests, seed=seed))
          for label, (policy, params) in {"random": ("random", {}), "poll-2": POLL2}.items()),
    ])
    return _table("Stale-information JSQ (poisson_exp, 90%)", rows)


def _switch(seed: int, n_requests: int) -> Output:
    """Polling on the fine-grain trace at 90% (16 servers, 6 clients) over
    constant latencies and over a switched 100 Mb/s Ethernet (per-port
    FIFO egress plus serialization) under the same stack latencies."""
    rows = []
    for d in (2, 8):
        constant, switched = (
            _hand_built(("polling", {"poll_size": d}), seed, n_requests, workload="fine_grain",
                        switch=switch)[1].summary(0.1)["mean_response_time"] * 1e3
            for switch in (False, True))
        rows.append({"poll_size": d, "constant_ms": constant, "switched_ms": switched,
                     "delta": switched / constant - 1.0})
    return _table("Constant-latency vs switched-Ethernet substrate (fine-grain, 90%)", rows)


def _supermarket(seed: int, n_requests: int) -> Output:
    """Random (d=1) and poll-d on poisson_exp (50 ms, 16 servers) less the
    516 us request/response latency, against the n -> infinity supermarket
    mean field (Mitzenmacher). Run length is the condition that matters:
    random's 90% cell relaxes slowly, and its 12% band missed on seed 0
    at 16 000 requests and on seed 2 at 20 000, though it held on seeds
    0-3 at 12 000 and on seeds 0-2 at 30 000."""
    cells = [
        ({"load": load, "d": d},
         SimulationConfig(policy="random" if d == 1 else "polling",
                          policy_params={} if d == 1 else {"poll_size": d}, load=load,
                          n_requests=n_requests, seed=seed))
        for load in (0.7, 0.9) for d in (1, 2, 3, 8)
    ]
    rows = []
    for row in _sweep(cells, simulated=lambda result: result.mean_response_time
                      - PAPER_NET.request_response_total):
        simulated = row["simulated"]
        theory = supermarket_mean_response_time(row["load"], row["d"], 50e-3)
        rows.append({"load": row["load"], "d": row["d"], "simulated_ms": simulated * 1e3,
                     "theory_ms": theory * 1e3, "ratio": simulated / theory})
    return _table("Polling simulation vs supermarket mean field", rows)


def _spec_driver(name: str, full: dict, quick: dict) -> Driver:
    return Driver(name, lambda **kw: _spec(name, **kw), full, quick)


FIG3_INTERVALS = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
FIG2_DELAYS = (0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 100.0)

#: every driver a row names; the full sizes are the builders' own
#: publication defaults (fig3 adds a 2 ms interval), and each ablation runs
#: at the size its EXPERIMENTS.md table quotes
DRIVERS = {
    driver.name: driver
    for driver in (
        Driver("table1_traces", _table1, {"n": None}, {"n": 60_000}),
        Driver(
            "figure2_inaccuracy", _figure2,
            {"delays_normalized": FIG2_DELAYS, "n_requests": 300_000},
            {"delays_normalized": (0.0, 1.0, 10.0, 100.0), "n_requests": 60_000,
             "n_samples": 8_000, "workloads": ("poisson_exp",)},
        ),
        Driver("poll_profile_section32", _poll_profile, {"n_requests": 20_000},
               {"n_requests": 10_000}),
        _spec_driver("fig3", {"intervals": FIG3_INTERVALS, "n_requests": 20_000},
                     {"intervals": (0.002, 0.005, 1.0), "workloads": ("poisson_exp", "fine_grain"),
                      "n_requests": 4_000}),
        _spec_driver("fig4", {"n_requests": 20_000},
                     {"loads": (0.9,), "poll_sizes": (2, 8), "n_requests": 4_000}),
        Driver("fig6", _figure6, {"n_requests": 15_000},
               {"loads": (0.5, 0.9), "poll_sizes": (2, 3, 8), "n_requests": 3_000}),
        _spec_driver("table2", {"n_requests": 25_000}, {"n_requests": 6_000}),
        _spec_driver("messages", {"n_requests": 10_000},
                     {"client_counts": (2, 6), "n_requests": 2_500}),
        *(Driver(name, run, {"n_requests": full}, {"n_requests": quick})
          for name, run, full, quick in (
              ("admission", _admission, 25_000, 5_000),
              ("burstiness", _burstiness, 25_000, 3_000),
              ("discard_threshold", _discard_threshold, 25_000, 6_000),
              ("heterogeneous", _heterogeneous, 25_000, 3_000),
              ("modern", _modern, 20_000, 3_000),
              ("network_speed", _network_speed, 20_000, 2_500),
              ("stale_info", _stale_info, 25_000, 3_000),
              ("switch", _switch, 15_000, 2_000),
              ("supermarket", _supermarket, 30_000, 12_000),
          )),
    )
}


def cell(rows: list[dict], column: str, **match) -> float:
    """The one row matching every ``column=value`` in ``match``."""
    [row] = [r for r in rows if all(abs(r[k] - v) < 1e-9 if isinstance(v, float)
                                     else r[k] == v for k, v in match.items())]
    return row[column]


#: a check yields ``(assertion with its measured values, holds)``
Check = Callable[[list[dict]], Iterator[tuple[str, bool]]]


def check_t1(rows):
    service = {r["workload"].split("-")[0]: r for r in rows}
    fine, medium = service["Fine"], service["Medium"]
    yield f"fine mean {fine['service_mean_ms']:.2f} ms within 1.0 of 22.2", \
        abs(fine["service_mean_ms"] - 22.2) < 1.0
    yield f"medium mean {medium['service_mean_ms']:.2f} ms within 1.45 of 28.9", \
        abs(medium["service_mean_ms"] - 28.9) < 1.45
    yield f"medium std {medium['service_std_ms']:.1f} ms within 15% of 62.9", \
        abs(medium["service_std_ms"] - 62.9) < 0.15 * 62.9


def check_e1(rows):
    def curve(load):
        return [r["inaccuracy"] for r in rows
                if r["load"] == load and r["workload"].startswith("Poisson")]

    delays = list(dict.fromkeys(r["delay_normalized"] for r in rows))
    high, low = curve(0.9), curve(0.5)
    yield f"90% at 10 service times {high[delays.index(10.0)]:.2f} > 2", \
        high[delays.index(10.0)] > 2.0
    yield "zero delay reads exact at both loads", high[0] == low[0] == 0.0
    for load, values in ((0.9, high), (0.5, low)):
        yield f"{load:.0%} curve grows with delay and stays under " \
              f"{eq1_upperbound(load):.2f} (+5%)", \
            all(a <= b for a, b in zip(values, values[1:])) \
            and max(values) <= 1.05 * eq1_upperbound(load)
    yield f"50% at {delays[-1]:g} service times {low[-1]:.2f} within 0.25 of the bound", \
        abs(low[-1] - eq1_upperbound(0.5)) < 0.25
    yield f"90% at {delays[-1]:g} {high[-1]:.2f} > 3x 50% {low[-1]:.2f}", \
        high[-1] > 3.0 * low[-1]


def _at90(rows, workload, *policies):
    return {p: cell(rows, "response_ms", workload=workload, load=0.9, policy=p)
            for p in policies}


def check_c1(rows):
    for workload in WORKLOADS:
        r = _at90(rows, workload, "random", "poll-2", "ideal")
        yield f"{workload}: poll-2/random {r['poll-2'] / r['random']:.2f} < 0.65", \
            r["poll-2"] < 0.65 * r["random"]
        yield f"{workload}: poll-2/ideal {r['poll-2'] / r['ideal']:.2f} in (1, 2.5)", \
            r["ideal"] < r["poll-2"] < 2.5 * r["ideal"]


def check_c2s(rows):
    for workload in WORKLOADS:
        r = _at90(rows, workload, "random", "poll-2", "poll-8", "ideal")
        yield f"{workload}: poll-8/poll-2 {r['poll-8'] / r['poll-2']:.2f} <= 1.10", \
            r["poll-8"] <= 1.10 * r["poll-2"]
        share = (r["poll-2"] - r["poll-8"]) / (r["random"] - r["poll-2"])
        yield f"{workload}: (poll-2 - poll-8)/(random - poll-2) {share:.2f} < 0.35", \
            share < 0.35
        yield f"{workload}: ideal/poll-8 {r['ideal'] / r['poll-8']:.2f} <= 1.05", \
            r["ideal"] <= 1.05 * r["poll-8"]


def check_c2p(rows):
    fine = _at90(rows, "fine_grain", "random", "poll-2", "poll-3", "poll-8")
    yield f"fine_grain: poll-8/random {fine['poll-8'] / fine['random']:.2f} > 1", \
        fine["poll-8"] > fine["random"]
    small = max(fine["poll-2"], fine["poll-3"])
    yield f"fine_grain: poll-8/max(poll-2, poll-3) {fine['poll-8'] / small:.2f} > 2", \
        fine["poll-8"] > 2.0 * small
    yield "fine_grain: poll-2 and poll-3 beat random", \
        max(fine["poll-2"], fine["poll-3"]) < fine["random"]
    medium = _at90(rows, "medium_grain", "random", "poll-2", "poll-8")
    yield f"medium_grain: poll-8/random {medium['poll-8'] / medium['random']:.2f} < 1, " \
          f"poll-2/random {medium['poll-2'] / medium['random']:.2f} < 0.65", \
        medium["poll-8"] < medium["random"] and medium["poll-2"] < 0.65 * medium["random"]
    for workload in WORKLOADS:
        poll2, poll8 = (cell(rows, "response_ms", workload=workload, load=0.5, policy=p)
                        for p in ("poll-2", "poll-8"))
        yield f"{workload} at 50%: poll-8/poll-2 {poll8 / poll2:.2f} < 2", poll8 < 2.0 * poll2
    ratio = max(
        (r["response_ms"] - 1.0) / cell(rows, "response_ms", workload=r["workload"],
                                        load=r["load"], policy="sim-ideal")
        for r in rows if r["policy"] == "ideal"
    )
    yield f"the manager ('ideal') within 1.5x the simulation-model ideal + 1 ms in every " \
          f"cell (worst {ratio:.2f}x)", ratio < 1.5


def check_c3(rows):
    gain = {r["workload"]: r["improvement"] for r in rows}
    yield f"fine_grain gains {gain['fine_grain']:+.1%} > 3%", gain["fine_grain"] > 0.03
    for r in rows:
        yield f"{r['workload']}: polling time {r['opt_poll_ms']:.2f}/" \
              f"{r['orig_poll_ms']:.2f} ms < 0.6x", r["opt_poll_ms"] < 0.6 * r["orig_poll_ms"]
    yield f"fine_grain gains the most: {gain['fine_grain']:+.1%} vs medium " \
          f"{gain['medium_grain']:+.1%}, poisson {gain['poisson_exp']:+.1%} (-1 pt)", \
        gain["fine_grain"] > max(gain["medium_grain"], gain["poisson_exp"] - 0.01)
    yield f"medium_grain {gain['medium_grain']:+.1%} in (-12%, +8%)", \
        -0.12 < gain["medium_grain"] < 0.08
    excl = cell(rows, "improvement_excl_polling", workload="fine_grain")
    yield f"fine_grain gain excluding polling {excl:+.1%} > -2%", excl > -0.02


def _fine_gain(rows):
    return cell(rows, "improvement", workload="fine_grain")


def check_c3n_ready(rows):
    yield f"fine_grain gains {_fine_gain(rows):+.1%}, within 2 pts of the paper's +8.3%", \
        abs(_fine_gain(rows) - 0.083) <= 0.02


def check_c3n_partial(rows):
    yield f"fine_grain gains {_fine_gain(rows):+.1%} > 0", _fine_gain(rows) > 0.0


def check_c4(rows):
    def norm(load, workload, interval_ms):
        return cell(rows, "normalized_to_ideal", load=load, workload=workload,
                    interval_ms=interval_ms)

    for workload in ("poisson_exp", "fine_grain"):
        yield f"{workload} at 90%: 1 s interval {norm(0.9, workload, 1000.0):.1f}x ideal > 6", \
            norm(0.9, workload, 1000.0) > 6.0
    yield f"poisson_exp at 90%: 2 ms interval {norm(0.9, 'poisson_exp', 2.0):.2f}x ideal < 1.6, " \
          f"5 ms {norm(0.9, 'poisson_exp', 5.0):.2f}x < 1.7", \
        norm(0.9, "poisson_exp", 2.0) < 1.6 and norm(0.9, "poisson_exp", 5.0) < 1.7
    curve = [r["normalized_to_ideal"] for r in rows
             if (r["load"], r["workload"]) == (0.9, "poisson_exp")]
    yield "poisson_exp at 90%: degradation grows with the interval", \
        all(a < b for a, b in zip(curve, curve[1:]))
    yield f"poisson_exp at 50%: 1 s {norm(0.5, 'poisson_exp', 1000.0):.2f}x in (1.2, 8)", \
        1.2 < norm(0.5, "poisson_exp", 1000.0) < 8.0
    worst = min(r["normalized_to_ideal"] for r in rows)
    yield f"no interval beats ideal by over 10% (min {worst:.2f}x)", worst >= 0.9


def check_p32(rows):
    [profile] = rows
    over10, over20 = profile["frac_over_10ms"], profile["frac_over_20ms"]
    yield f"polls over 10 ms {over10:.2%} within 3 pts of 8.1%", abs(over10 - 0.081) < 0.03
    yield f"polls over 20 ms {over20:.2%} within 2.5 pts of 5.6%", abs(over20 - 0.056) < 0.025
    yield "fewer polls over 20 ms than over 10 ms", over20 < over10


def check_m24(rows):
    def per_request(clients, policy):
        return cell(rows, "control_messages_per_request", n_clients=clients, policy=policy)

    broadcast = per_request(6, "broadcast") / per_request(2, "broadcast")
    yield f"broadcast messages 6 vs 2 clients {broadcast:.2f}x > 2.5", broadcast > 2.5
    polling = [per_request(n, "polling") for n in (2, 6)]
    yield f"polling {polling[0]:.3f} and {polling[1]:.3f} messages a request, each 4.0 " \
          "(d=2: polls + replies)", all(abs(value - 4.0) < 0.01 for value in polling)


def check_adm(rows):
    unbounded, tight, loose = (next(r for r in rows if r["policy"] == label)
                               for label in ADMISSION_BOUNDS)
    yield f"unbounded sheds {unbounded['shed_fraction']:.3f} == 0", \
        unbounded["shed_fraction"] == 0.0
    yield f"max_queue=20 refuses {tight['rejections']} > 0 times", tight["rejections"] > 0
    yield f"max_queue=20 accepted p99 {tight['accepted_p99_ms']:.0f} ms < 0.5x unbounded " \
          f"{unbounded['accepted_p99_ms']:.0f} ms", \
        tight["accepted_p99_ms"] < 0.5 * unbounded["accepted_p99_ms"]
    yield f"max_queue=20 goodput {tight['goodput_fraction']:.3f} > unbounded " \
          f"{unbounded['goodput_fraction']:.3f}", \
        tight["goodput_fraction"] > unbounded["goodput_fraction"]
    yield f"max_queue=20 sheds {tight['shed_fraction']:.3f} >= max_queue=50 " \
          f"{loose['shed_fraction']:.3f}", tight["shed_fraction"] >= loose["shed_fraction"]


def check_bur(rows):
    def rt(arrivals, policy):
        return cell(rows, "response_ms", arrivals=arrivals, policy=policy)

    for arrivals in ("poisson", "mmpp 5:1"):
        yield f"{arrivals}: ideal {rt(arrivals, 'ideal'):.1f} < poll-2 " \
              f"{rt(arrivals, 'poll-2'):.1f} < random {rt(arrivals, 'random'):.1f} ms", \
            rt(arrivals, "ideal") < rt(arrivals, "poll-2") < rt(arrivals, "random")
    yield f"bursts slow ideal: {rt('mmpp 5:1', 'ideal'):.1f} > {rt('poisson', 'ideal'):.1f} ms", \
        rt("mmpp 5:1", "ideal") > rt("poisson", "ideal")


def check_dt(rows):
    def rt(threshold_ms):
        return cell(rows, "response_ms", threshold_ms=threshold_ms)

    baseline = rows[-1]["response_ms"]  # threshold inf: no discard
    ten, best = rt(10.0), min(r["response_ms"] for r in rows)
    yield f"10 ms {ten:.1f} < no discard {baseline:.1f} ms", ten < baseline
    yield f"100 ms {rt(100.0):.1f} within 15% of no discard", \
        abs(rt(100.0) - baseline) < 0.15 * baseline
    yield f"10 ms {ten:.1f} < 1.10x the sweep's best {best:.1f} ms", ten < 1.10 * best


def check_het(rows):
    def get(policy, column="response_ms"):
        return cell(rows, column, policy=policy)

    yield f"random sends {get('random', 'fast_server_share'):.3f} < 0.55 to the fast half", \
        get("random", "fast_server_share") < 0.55
    yield f"poll-2/random {get('poll-2') / get('random'):.3f} < 0.6", \
        get("poll-2") < 0.6 * get("random")
    for policy in ("poll-2", "poll-2-weighted", "ideal", "ideal-weighted"):
        yield f"{policy} sends {get(policy, 'fast_server_share'):.3f} > 0.55 to the fast half", \
            get(policy, "fast_server_share") > 0.55
    yield f"poll-2-weighted/poll-2 {get('poll-2-weighted') / get('poll-2'):.2f} < 1.15", \
        get("poll-2-weighted") < 1.15 * get("poll-2")
    yield f"ideal-weighted/ideal {get('ideal-weighted') / get('ideal'):.2f} < 1.1", \
        get("ideal-weighted") < 1.1 * get("ideal")


def check_mod(rows):
    for workload in dict.fromkeys(r["workload"] for r in rows):
        def rt(policy):
            return cell(rows, "response_ms", workload=workload, policy=policy)

        yield f"{workload}: least-conn, jiq and poll-2 beat random", \
            max(rt("least-conn"), rt("jiq"), rt("poll-2")) < rt("random")
        yield f"{workload}: jiq/poll-2 {rt('jiq') / rt('poll-2'):.2f} in (0.5, 2)", \
            0.5 < rt("jiq") / rt("poll-2") < 2.0


def check_net(rows):
    speedup = {r["policy"]: r["speedup"] for r in rows}
    yield f"poll-8 speeds up {speedup['polling d=8']:.2f}x > 0.95x ideal's " \
          f"{speedup['ideal']:.2f}x", speedup["polling d=8"] > 0.95 * speedup["ideal"]
    yield f"every policy is faster on the 10x network (speedups " \
          f"{', '.join(f'{value:.2f}' for value in speedup.values())})", \
        all(r["fast_net_ms"] < r["paper_net_ms"] for r in rows)


def check_stale(rows):
    def rt(policy, age=None):
        return cell(rows, "response_ms", policy=policy, info_age_s=age)

    plain = [rt("stale_jsq", age) for age in STALE_AGES]
    local = [rt("stale_jsq+local", age) for age in STALE_AGES]
    random_ = rt("random")
    yield f"{STALE_AGES[0] * 1e3:g} ms snapshots {plain[0]:.1f} < 0.5x random {random_:.1f} ms", \
        plain[0] < 0.5 * random_
    yield f"{STALE_AGES[-1]:g} s snapshots {plain[-1]:.1f} > random {random_:.1f} ms", \
        plain[-1] > random_
    yield "plain snapshots degrade with age (1 ms < 50 ms < 1 s)", \
        plain[0] < plain[2] < plain[-1]
    yield "local increments help at every age from 50 ms", \
        all(c < p for p, c in zip(plain[2:], local[2:]))
    yield f"poll-2 {rt('poll-2'):.1f} < random {random_:.1f} ms", rt("poll-2") < random_


def check_sw(rows):
    for r in rows:
        yield f"d={r['poll_size']}: the switch moves the mean {r['delta']:+.1%}, under 10%", \
            abs(r["delta"]) < 0.10


def check_sm(rows):
    for r in rows:
        if r["d"] == 1:
            yield f"{r['load']:.0%} random (d=1): {r['ratio']:.3f}x M/M/1, within 12%", \
                abs(r["simulated_ms"] - r["theory_ms"]) <= 0.12 * r["theory_ms"]
        else:
            yield f"{r['load']:.0%} poll-{r['d']}: {r['ratio']:.3f}x the mean field, " \
                  "in (0.85, 1.8)", 0.85 < r["ratio"] < 1.8
    sim = {r["d"]: r["simulated_ms"] for r in rows if r["load"] == 0.9}
    yield f"90%: d=1->2 drop {sim[1] - sim[2]:.1f} ms > 3x d=2->8 drop " \
          f"{sim[2] - sim[8]:.1f} ms", sim[1] - sim[2] > 3.0 * (sim[2] - sim[8])


@dataclass(frozen=True)
class Claim:
    id: str
    claim: str
    driver: Optional[str]
    committed: str
    ready: Optional[Check] = None
    partial: Optional[Check] = None


CLAIMS = (
    Claim("T1", "Table 1: fine-grain 22.2 ms mean service; medium-grain 28.9 ms mean, "
          "62.9 ms std", "table1_traces", "READY", check_t1),
    Claim("E1", "Eq. 1 on synthetic queues (Fig. 2): inaccuracy grows toward "
          "2rho/(1-rho^2); the 90% curve sits well above the 50% one",
          "figure2_inaccuracy", "READY", check_e1),
    Claim("C1", "conclusion 1: polling suits fine-grain work (90% load: poll-2 under "
          "0.65x random, within 2.5x ideal)", "fig4", "READY", check_c1),
    Claim("C2s", "conclusion 2, simulation: a small d is enough (poll-8 adds little "
          "over poll-2)", "fig4", "READY", check_c2s),
    Claim("C2p", "conclusion 2, prototype: d=8 collapses on the fine-grain panel; the "
          "manager emulates ideal", "fig6", "READY", check_c2p),
    Claim("C3", "conclusion 3: discarding slow polls helps, fine-grain the most",
          "table2", "READY", check_c3),
    Claim("C3n", "conclusion 3, size: the paper's ~+8.3% fine-grain discard gain",
          "table2", "PARTIAL", check_c3n_ready, check_c3n_partial),
    Claim("C4", "conclusion 4: broadcast needs very frequent updates (1 s interval "
          "> 6x ideal at 90%, 2 ms < 1.6x)", "fig3", "READY", check_c4),
    Claim("P32", "§3.2 profile: 8.1% of polls over 10 ms, 5.6% over 20 ms",
          "poll_profile_section32", "READY", check_p32),
    Claim("M24", "§2.4: broadcast control traffic grows with clients; polling stays at "
          "2d messages a request", "messages", "READY", check_m24),
    Claim("ADM", "ablation, admission control at 150% load: bounded queues shed "
          "load, cut accepted p99 by over 2x and raise goodput", "admission", "READY",
          check_adm),
    Claim("BUR", "ablation, MMPP 5:1 arrivals: bursts slow everyone; ideal < poll-2 < "
          "random survives", "burstiness", "READY", check_bur),
    Claim("DT", "ablation, discard threshold: 10 ms beats no discard and is within 10% "
          "of the sweep's best", "discard_threshold", "READY", check_dt),
    Claim("HET", "ablation, half the servers 2x fast: load-aware policies route most work "
          "to them; speed weighting never hurts", "heterogeneous", "READY", check_het),
    Claim("MOD", "ablation, modern successors at 90%: least-conn, JIQ and poll-2 beat "
          "random; JIQ within 2x of poll-2", "modern", "READY", check_mod),
    Claim("NET", "ablation, §5's 10x faster network: every policy gains, poll-8 at least "
          "0.95x as much as ideal", "network_speed", "READY", check_net),
    Claim("STALE", "ablation, stale-snapshot JSQ: fresh beats random, 1 s old loses to it "
          "(herding); local increments help", "stale_info", "READY", check_stale),
    Claim("SW", "ablation, a switched 100 Mb/s Ethernet moves mean response under 10% "
          "(the constant-latency abstraction holds)", "switch", "READY", check_sw),
    Claim("SM", "ablation, polling vs the supermarket mean field (Mitzenmacher): d=1 "
          "within 12%, d>=2 in a one-sided band above it", "supermarket", "READY", check_sm),
    Claim("FLOCK", "flocking under periodic broadcast (ROADMAP item 14 supplies the check)",
          None, "TEMPLATE"),
    Claim("E1b", "Eq. 1 against a simulated broadcast (ROADMAP item 15 supplies the check)",
          None, "TEMPLATE"),
)


def verdict(claim: Claim, rows: list[dict]) -> tuple[str, list[str]]:
    """One seed's verdict for ``claim`` and the assertions that missed."""
    misses = [text for text, holds in claim.ready(rows) if not holds]
    if not misses:
        return "READY", []
    if claim.partial is None:
        return "FAILS", misses
    partial_misses = [text for text, holds in claim.partial(rows) if not holds]
    return ("FAILS" if partial_misses else "PARTIAL"), misses + partial_misses


@dataclass
class Outcome:
    claim: Claim
    measured: str
    #: ``seed s misses: assertion`` for every assertion that missed on some seed,
    #: else the first assertion on the first seed (the row's headline)
    notes: list[str]

    @property
    def dropped(self) -> bool:
        return self.claim.committed in VERDICTS and (
            VERDICTS.index(self.measured) < VERDICTS.index(self.claim.committed)
        )


def evaluate(
    claims: tuple[Claim, ...], seeds: list[int], quick: bool
) -> tuple[list[Outcome], dict[str, str]]:
    """Run each driver the claims name once per seed; return every
    claim's outcome and the first seed's report of each driver."""
    outputs: dict[tuple[str, int], Output] = {}
    for name in dict.fromkeys(c.driver for c in claims if c.driver is not None):
        driver = DRIVERS[name]
        for seed in seeds:
            started = time.perf_counter()
            outputs[name, seed] = driver.run(seed=seed, **driver.kwargs(quick))
            print(f"[{time.perf_counter() - started:6.1f}s] {name} seed {seed} "
                  f"({driver.size(quick)})", file=sys.stderr)
    outcomes = []
    for claim in claims:
        if claim.driver is None:
            outcomes.append(Outcome(claim, "TEMPLATE", []))
            continue
        worst, notes = "READY", []
        for seed in seeds:
            rows = outputs[claim.driver, seed][0]
            seed_verdict, misses = verdict(claim, rows)
            worst = min(worst, seed_verdict, key=VERDICTS.index)
            notes += [f"seed {seed} misses: {text}" for text in misses]
        if not notes:
            notes = [next(claim.ready(outputs[claim.driver, seeds[0]][0]))[0]]
        outcomes.append(Outcome(claim, worst, notes))
    reports = {name: output[1] for (name, seed), output in outputs.items() if seed == seeds[0]}
    return outcomes, reports


def render(outcomes: list[Outcome], seeds: list[int], quick: bool) -> str:
    """The status-guide table (Markdown)."""
    lines = [
        "| Row | Claim | Status | Committed | Driver | Seeds | Size | Measured |",
        "|-----|-------|--------|-----------|--------|-------|------|----------|",
    ]
    for outcome in outcomes:
        claim = outcome.claim
        driver = DRIVERS.get(claim.driver)
        lines.append("| " + " | ".join([
            claim.id,
            claim.claim,
            outcome.measured,
            claim.committed,
            f"`{claim.driver}`" if driver else "-",
            " ".join(map(str, seeds)) if driver else "-",
            driver.size(quick) if driver else "-",
            "; ".join(outcome.notes) or "-",
        ]) + " |")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grids on seed 0 (tier-1 size); writes no output file")
    args = parser.parse_args(argv)
    seeds = [0] if args.quick else [0, 1, 2]
    began = time.perf_counter()
    outcomes, reports = evaluate(CLAIMS, seeds, args.quick)
    table = render(outcomes, seeds, args.quick)
    print(table)
    if not args.quick:
        OUTPUT.mkdir(exist_ok=True)
        (OUTPUT / "claims.txt").write_text(table + "\n")
        for name, text in reports.items():
            (OUTPUT / f"{name}.txt").write_text(text + "\n")
    print(f"[claims: {len(outcomes)} rows, seeds {seeds}, "
          f"{time.perf_counter() - began:.0f}s]", file=sys.stderr)
    drops = [o for o in outcomes if o.dropped]
    for outcome in drops:
        print(f"claims: {outcome.claim.id} measured {outcome.measured}, committed "
              f"{outcome.claim.committed}: {'; '.join(outcome.notes)}", file=sys.stderr)
    return 1 if drops else 0


if __name__ == "__main__":
    sys.exit(main())

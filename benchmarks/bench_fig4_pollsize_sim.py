"""Figure 4: impact of poll size — simulation model (16 servers).

Paper shape (all three panels): random is worst and degrades sharply
with load; poll size 2 captures most of the gap to IDEAL; poll sizes
3/4/8 add only marginal improvement and never degrade (the idealized
simulation has no polling overhead).
"""

from benchmarks.conftest import run_once, scaled
from repro.experiments.figures import figure4_spec
from repro.experiments.report import ascii_chart, format_series

LOADS = (0.5, 0.6, 0.7, 0.8, 0.9)


def test_fig4(benchmark, report):
    figure = run_once(
        benchmark,
        lambda: figure4_spec(
            loads=LOADS,
            n_requests=scaled(20_000),
            seed=0,
            model="simulation",
        ).run(),
    )
    sections = []
    for workload in dict.fromkeys(figure.table.column("workload")):
        series = {}
        for policy in ("random", "poll-2", "poll-3", "poll-4", "poll-8", "ideal"):
            rows = [
                r for r in figure.table.rows
                if r["workload"] == workload and r["policy"] == policy
            ]
            series[policy] = [r["response_ms"] for r in rows]
        sections.append(
            f"<{workload}>  (mean response time, ms)\n"
            + format_series("load", [f"{l:.0%}" for l in LOADS], series)
            + "\n"
            + ascii_chart([f"{l:.0%}" for l in LOADS], series, logy=True,
                          y_label="resp ms")
        )
    report("fig4_pollsize_sim", "== Figure 4 (simulation) ==\n" + "\n\n".join(sections))

    def response(workload, load, policy):
        for r in figure.table.rows:
            if (r["workload"], r["load"], r["policy"]) == (workload, load, policy):
                return r["response_ms"]
        raise KeyError((workload, load, policy))

    for workload in ("poisson_exp", "fine_grain", "medium_grain"):
        r90 = {p: response(workload, 0.9, p) for p in
               ("random", "poll-2", "poll-3", "poll-8", "ideal")}
        # Ordering at 90%: ideal <= poll-8 <= poll-3 <= poll-2 << random.
        assert r90["poll-2"] < 0.65 * r90["random"]
        assert r90["ideal"] <= r90["poll-8"] * 1.05
        # d=2 already close to ideal; d=8 does NOT degrade in simulation.
        assert r90["poll-8"] <= r90["poll-2"] * 1.10
        # The poll-2 -> poll-8 gain is small next to the random -> poll-2 gain.
        assert (r90["poll-2"] - r90["poll-8"]) < 0.35 * (r90["random"] - r90["poll-2"])

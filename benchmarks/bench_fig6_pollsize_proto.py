"""Figure 6: impact of poll size — prototype model (16 servers).

Paper shape: Medium-Grain and Poisson/Exp largely confirm the
simulation results, but for the Fine-Grain trace poll size 8 is *far
worse* than small poll sizes and even (slightly) worse than pure random
— excessive polling overhead (longer polling delays + staler load
indices) bites exactly where service times are small and the calibrated
full-load point leaves no CPU headroom.
"""

from benchmarks.conftest import run_once, scaled
from repro.experiments.figures import figure6_spec
from repro.experiments.report import ascii_chart, format_series

LOADS = (0.5, 0.6, 0.7, 0.8, 0.9)


def test_fig6(benchmark, report):
    figure = run_once(
        benchmark,
        lambda: figure6_spec(
            loads=LOADS,
            n_requests=scaled(15_000),
            seed=0,
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
            f"<{workload}>  (mean response time, ms; 'ideal' = centralized manager)\n"
            + format_series("load", [f"{l:.0%}" for l in LOADS], series)
            + "\n"
            + ascii_chart([f"{l:.0%}" for l in LOADS], series, logy=True,
                          y_label="resp ms")
        )
    report(
        "fig6_pollsize_proto", "== Figure 6 (prototype) ==\n" + "\n\n".join(sections)
    )

    def response(workload, load, policy):
        for r in figure.table.rows:
            if (r["workload"], r["load"], r["policy"]) == (workload, load, policy):
                return r["response_ms"]
        raise KeyError((workload, load, policy))

    # Fine-Grain at 90%: poll-8 collapses below random; small polls fine.
    fine = {p: response("fine_grain", 0.9, p) for p in
            ("random", "poll-2", "poll-3", "poll-8")}
    assert fine["poll-8"] > fine["random"]
    assert fine["poll-8"] > 2.0 * fine["poll-3"]
    assert fine["poll-2"] < fine["random"]
    assert fine["poll-3"] < fine["random"]

    # Medium-Grain largely confirms the simulation: poll-8 not worse than
    # random, small polls beat random clearly.
    medium = {p: response("medium_grain", 0.9, p) for p in
              ("random", "poll-2", "poll-8")}
    assert medium["poll-8"] < medium["random"]
    assert medium["poll-2"] < 0.65 * medium["random"]

    # At modest load (50%) poll size does not matter much anywhere.
    for workload in ("fine_grain", "medium_grain", "poisson_exp"):
        r50 = {p: response(workload, 0.5, p) for p in ("poll-2", "poll-8")}
        assert r50["poll-8"] < 2.0 * r50["poll-2"]

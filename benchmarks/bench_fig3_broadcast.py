"""Figure 3: impact of broadcast frequency (16 servers).

Paper shape: at 90% load, a 1 s mean broadcast interval is an order of
magnitude slower than IDEAL for fine-grain workloads (Poisson/Exp 50 ms
and the Fine-Grain trace); at 50% load the degradation is smaller (up
to ~3x) but still significant; millisecond-scale intervals approach
IDEAL.
"""

from benchmarks.conftest import run_once, scaled
from repro.experiments.figures import figure3_spec
from repro.experiments.report import ascii_chart, format_series

INTERVALS = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


def test_fig3(benchmark, report):
    figure = run_once(
        benchmark,
        lambda: figure3_spec(
            intervals=INTERVALS,
            n_requests=scaled(15_000),
            seed=0,
        ).run(),
    )
    sections = []
    for load in (0.9, 0.5):
        series = {}
        for workload in dict.fromkeys(figure.table.column("workload")):
            rows = [
                r for r in figure.table.rows
                if r["load"] == load and r["workload"] == workload
            ]
            series[workload] = [r["normalized_to_ideal"] for r in rows]
        sections.append(
            f"<server {load:.0%} busy>  (mean response normalized to IDEAL)\n"
            + format_series(
                "interval_ms", [i * 1e3 for i in INTERVALS], series
            )
            + "\n"
            + ascii_chart([i * 1e3 for i in INTERVALS], series, logy=True,
                          y_label="x ideal")
        )
    report("fig3_broadcast", "== Figure 3 ==\n" + "\n\n".join(sections))

    def norm(load, workload, interval):
        for r in figure.table.rows:
            if (
                r["load"] == load
                and r["workload"] == workload
                and abs(r["interval_ms"] - interval * 1e3) < 1e-9
            ):
                return r["normalized_to_ideal"]
        raise KeyError((load, workload, interval))

    # 90% busy, fine-grain workloads: ~order of magnitude at 1s interval.
    assert norm(0.9, "poisson_exp", 1.0) > 6.0
    assert norm(0.9, "fine_grain", 1.0) > 6.0
    # 50% busy: degradation present but far smaller.
    assert 1.2 < norm(0.5, "poisson_exp", 1.0) < 8.0
    # Fast broadcasting approaches IDEAL.
    assert norm(0.9, "poisson_exp", 0.002) < 1.6
    # Degradation grows with the interval (compare endpoints).
    assert norm(0.9, "poisson_exp", 1.0) > norm(0.9, "poisson_exp", 0.01)

#!/usr/bin/env python3
"""The repository's benchmark: six workloads, end-to-end and per-layer.

One workload, the form the driver calls (last stdout line is the JSON
result, exit code 0 only when every output check passed)::

    python3 benchmarks/suite/run.py --workload exact_core --seed 0 --seconds 10 --trace 0

Every workload, each in its own fresh interpreter, round-robin, with a
table of every metric and an optional JSON file for ``compare``::

    python3 benchmarks/suite/run.py --seed 0 [--trace 1] [--rounds 2] [--smoke] [--out A.json]
    python3 benchmarks/suite/run.py compare A.json B.json
    python3 benchmarks/suite/run.py manifest > BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` is the separate traced pass that yields the per-layer
numbers and writes ``benchmarks/suite/out/trace_<workload>.json``.
See README.md beside this file.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

import harness  # noqa: E402
import metrics as M  # noqa: E402

#: BENCHMARK.json's run_seconds: how long one run times its repeats
RUN_SECONDS = 10
#: fresh interpreters that only set up, besides the run's own set-up
SETUP_CHILDREN = 2
MIN_REPEATS = 3
SMOKE = {"scale": 0.1, "seconds": 1.0, "rounds": 1, "setup_samples": 1}


def manifest() -> dict:
    """What BENCHMARK.json at the repository root says (the tables of metrics.py)."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in M.WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in M.END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in M.PER_LAYER],
    }


def need_source() -> None:
    """The benchmark measures the checkout it sits in, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure_setup(args, paused_at: float) -> tuple[object, dict]:
    """Import the program, build the workload, time it from ``_T0``.

    The window is ``_T0`` to ready, less the stretch from ``paused_at``
    to the end of the first probe: that is the harness's own work
    (set-up children, building the probe's table), not the program's.
    """
    before = harness.probe()
    resumed_at = time.perf_counter()
    import workloads

    workload = workloads.BY_NAME[args.workload](args.seed, args.scale)
    workload.setup()
    ready = time.perf_counter()
    after = harness.probe()
    raw = (ready - _T0) - (resumed_at - paused_at)
    probe_s = 0.5 * (before + after)
    return workload, {"raw_s": raw, "probe_s": probe_s, "ref_s": raw * harness.K_REF_S / probe_s}


def child_command(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", str(args.scale), *extra,
    ]


def last_json_line(text: str, prefix: str = "") -> dict:
    for line in reversed(text.splitlines()):
        if line.startswith(prefix + "{"):
            return json.loads(line[len(prefix):])
    raise ValueError(f"no {prefix or 'JSON'} line in child output:\n{text[-2000:]}")


def run_untraced(args) -> tuple[dict, dict]:
    paused_at = time.perf_counter()
    samples = []
    for _ in range(args.setup_samples - 1):
        done = subprocess.run(
            child_command(args, "--setup-only"), capture_output=True, text=True, timeout=170
        )
        if done.returncode != 0:
            sys.exit(f"benchmark: set-up child failed:\n{done.stdout}\n{done.stderr}")
        samples.append(last_json_line(done.stdout))
    workload, own = measure_setup(args, paused_at)
    samples.append(own)

    meter = workload.meter()
    workload.unit(meter, scale=workload.scale * harness.WARMUP_SCALE)  # discarded warm-up
    repeats = []
    began = time.perf_counter()
    while True:
        mark = len(meter.slices)
        started = time.perf_counter()
        unit = workload.unit(meter)
        repeats.append((unit, meter.since(mark)))
        now = time.perf_counter()
        if len(repeats) >= MIN_REPEATS and (now - began) + 0.5 * (now - started) >= args.seconds:
            break
    checks = workload.checks(repeats[0][0], repeats[-1][0])
    workload.close()

    walls = [t.wall_ref if "wall" in workload.scaled else t.wall for _, t in repeats]
    cpus = [t.cpu_ref if "cpu" in workload.scaled else t.cpu for _, t in repeats]
    series = {
        "setup_s": [s["ref_s"] for s in samples],
        "wall_s": walls,
        "requests_per_s": [u.requests / w for (u, _), w in zip(repeats, walls)],
        "cpu_ms_per_request": [cpu * 1e3 / u.requests for (u, _), cpu in zip(repeats, cpus)],
        "peak_rss_mb": [harness.peak_rss_mb()],
        "latency_p50_ms": [statistics.median(u.latencies_ms) for u, _ in repeats],
    }
    detail = {
        "metrics": {m.name: harness.summarize(series[m.name], m.unit) for m in M.END_TO_END},
        "raw": {
            "setup_s": [s["raw_s"] for s in samples],
            "wall_s": [t.wall for _, t in repeats],
            "cpu_ms_per_request": [t.cpu * 1e3 / u.requests for u, t in repeats],
            "host_calibration_ms": [p * 1e3 for p in meter.probes],
        },
        "fingerprint": repeats[-1][0].fingerprint,
        "sim_failed": sum(u.sim_failed for u, _ in repeats),
        "checks": checks,
    }
    # `failed` is requests the program gave no outcome; a request the
    # simulated cluster failed is a model output (`sim_failed`, README.md)
    result = {
        "correct": all(checks.values()),
        "attempted": sum(u.requests for u, _ in repeats),
        "failed": sum(u.failed for u, _ in repeats),
    }
    return result, detail


def run_traced(args) -> tuple[dict, dict]:
    import layers
    import tracing
    import workloads

    cls = workloads.BY_NAME[args.workload]
    workload = cls(args.seed, args.scale * cls.trace_scale)
    meter = workload.meter()
    run = layers.TRACED[args.workload](workload, meter, tracing.Tracer())
    workload.close()
    homed = [m.name for m in M.PER_LAYER if args.workload in m.home]
    run.checks["every_homed_metric_measured"] = all(name in run.values for name in homed)
    run.checks["no_stray_metric"] = all(
        name in homed or value == 0.0 for name, value in run.values.items()
    )
    path = workloads.OUT_DIR / f"trace_{args.workload}.json"
    tracing.write_trace(path, args.workload, run.sections)
    detail = {
        # a metric reads 0 in a workload that does not exercise its layer
        "metrics": {
            m.name: {"value": float(run.values.get(m.name, 0.0)), "unit": m.unit} for m in M.PER_LAYER
        },
        "measured": homed,
        "sim_failed": run.sim_failed,
        "checks": run.checks,
        "trace_file": str(path.relative_to(ROOT)),
    }
    result = {"correct": all(run.checks.values()), "attempted": run.requests, "failed": run.failed}
    return result, detail


def one_workload(args) -> int:
    need_source()
    if args.setup_only:
        workload, sample = measure_setup(args, time.perf_counter())
        workload.close()
        print(json.dumps(sample))
        return 0
    result, detail = (run_traced if args.trace else run_untraced)(args)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, scale=args.scale)
    print_workload(detail)
    print("DETAIL " + json.dumps(detail))
    result["metrics"] = {
        name: {"value": m["value"], "unit": m["unit"]} for name, m in detail["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def print_workload(detail: dict) -> None:
    print(f"== {detail['workload']}  seed={detail['seed']}  trace={detail['trace']} ==")
    measured = detail.get("measured")
    for name, m in detail["metrics"].items():
        if measured is not None and name not in measured:
            continue
        line = f"  {name:45s} {m['value']:>14.6g} {m['unit']}"
        if "n" in m:
            line += f"   [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}]"
        print(line)
    for name, values in detail.get("raw", {}).items():
        print(f"  raw {name:41s} {statistics.median(values):>14.6g}   (median as the clock read it)")
    if "fingerprint" in detail:
        print(f"  sim_fingerprint {detail['fingerprint']}")
    if "sim_failed" in detail:
        print(f"  sim_failed {detail['sim_failed']}   (requests the simulated cluster failed: a model output)")
    for name, ok in detail["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")


# ----------------------------------------------------------------------
# every workload
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def all_workloads(args) -> int:
    need_source()
    import numpy

    per_workload: dict[str, list[dict]] = {name: [] for name in M.WORKLOAD_NAMES}
    failures = []
    # Round-robin, so slow drift of the host reaches every workload alike.
    for round_ in range(args.rounds):
        for name in M.WORKLOAD_NAMES:
            args.workload = name
            done = subprocess.run(
                child_command(
                    args, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--setup-samples", str(args.setup_samples),
                ),
                capture_output=True, text=True, timeout=175,
            )
            try:
                per_workload[name].append(last_json_line(done.stdout, "DETAIL "))
            except ValueError as err:
                failures.append(f"{name} round {round_}: exit {done.returncode}: {err}\n{done.stderr[-2000:]}")
                continue
            if done.returncode != 0:
                failures.append(f"{name} round {round_}: a check failed")
            print(f"[round {round_ + 1}/{args.rounds}] {name}: exit {done.returncode}", file=sys.stderr)

    report = {
        "meta": {
            "commit": git_commit(), "seed": args.seed, "trace": args.trace, "rounds": args.rounds,
            "seconds": args.seconds, "scale": args.scale, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "k_ref_s": harness.K_REF_S,
        },
        "workloads": {},
    }
    bounds = {m.name: m.bound for m in M.END_TO_END}
    for name, details in per_workload.items():
        if not details:
            continue
        merged = dict(details[-1])
        if not args.trace:
            # pool the rounds' repeats: one median, one pair of quartiles
            merged["metrics"] = {
                m.name: harness.summarize(
                    [x for d in details for x in d["metrics"][m.name]["samples"]], m.unit
                )
                for m in M.END_TO_END
            }
        merged["checks"] = {k: all(d["checks"].get(k, False) for d in details) for k in merged["checks"]}
        report["workloads"][name] = merged
        print_workload(merged)
        for metric, summary in merged["metrics"].items():
            if metric in bounds and harness.iqr_share(summary) > bounds[metric]:
                print(
                    f"  UNRESOLVED {metric}: its own inter-quartile range "
                    f"({harness.iqr_share(summary):.1%} of the median) exceeds its bound "
                    f"({bounds[metric]:.0%}); a difference of that size cannot be told from noise"
                )
    for failure in failures:
        print("FAILED " + failure)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare_reports(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows per (workload, end-to-end metric): how much worse B is than A
    against the metric's bound. Returns (rows, all within bound)."""
    rows = []
    ok = True
    for workload in M.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for m in M.END_TO_END:
            ma, mb = wa["metrics"][m.name], wb["metrics"][m.name]
            change = (mb["value"] - ma["value"]) / ma["value"]
            worse = change if m.better == "lower" else -change
            overlap = ma["q1"] <= mb["q3"] and mb["q1"] <= ma["q3"]
            noisy = max(harness.iqr_share(ma), harness.iqr_share(mb)) > m.bound
            if m.better == "lower":
                b_wins_all = max(mb["samples"]) < min(ma["samples"])
            else:
                b_wins_all = min(mb["samples"]) > max(ma["samples"])
            if worse > m.bound:
                verdict = "WORSE"
                ok = False
            elif noisy and not b_wins_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": m.name, "unit": m.unit, "a": ma["value"],
                "b": mb["value"], "worse_by": worse, "bound": m.bound,
                "quartiles_overlap": overlap, "verdict": verdict,
            })
    return rows, ok


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    rows, ok = compare_reports(a, b)
    print(f"A = {args.a}  (commit {a['meta']['commit']}, seed {a['meta']['seed']})")
    print(f"B = {args.b}  (commit {b['meta']['commit']}, seed {b['meta']['seed']})")
    print(f"{'workload':17s} {'metric':19s} {'A':>12s} {'B':>12s} {'B worse by':>11s} {'bound':>6s}  IQRs     verdict")
    for r in rows:
        print(
            f"{r['workload']:17s} {r['metric']:19s} {r['a']:12.5g} {r['b']:12.5g} "
            f"{r['worse_by']:+10.1%} {r['bound']:6.0%}  "
            f"{'overlap ' if r['quartiles_overlap'] else 'disjoint'} {r['verdict']}"
        )
    for workload in M.WORKLOAD_NAMES:
        fa = a["workloads"].get(workload, {}).get("fingerprint")
        fb = b["workloads"].get(workload, {}).get("fingerprint")
        if fa and fb:
            print(f"sim_fingerprint {workload}: {'same' if fa == fb else f'DIFFERENT ({fa} vs {fb})'}")
    print("every pair within its bound" if ok else "at least one pair is WORSE than its bound")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return compare(parser.parse_args(argv[1:]))
    if argv == ["manifest"]:
        print(json.dumps(manifest(), indent=2))
        return 0
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=M.WORKLOAD_NAMES, help="run this one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS), help="how long one run times its repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="unit size as a share of full size")
    parser.add_argument("--setup-samples", type=int, default=SETUP_CHILDREN + 1)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=2, help="all-workload mode: runs of each workload")
    parser.add_argument("--smoke", action="store_true", help="every code path at 1/10 size, < 30 s")
    parser.add_argument("--out", help="all-workload mode: write the report here")
    args = parser.parse_args(argv)
    if args.smoke:
        for key, value in SMOKE.items():
            setattr(args, key, value)
    return one_workload(args) if args.workload else all_workloads(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

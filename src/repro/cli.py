"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro table1
    python -m repro fig2
    python -m repro fig3  --requests 10000
    python -m repro fig4  --requests 10000
    python -m repro fig6  --requests 10000 --seed 3
    python -m repro table2
    python -m repro profile
    python -m repro messages
    python -m repro parity
    python -m repro fastparity --quick
    python -m repro chaos --quick
    python -m repro resilience --quick
    python -m repro overload --quick
    python -m repro autoscale --quick
    python -m repro scenario --quick
    python -m repro scenario --spec overload --oracle --export-dir runs.json
    python -m repro scenario --spec grid.yaml --validate
    python -m repro trace --policy broadcast --policy-param mean_interval=0.1
    python -m repro drive --quick
    python -m repro serve --port 9000 --time-limit 30
    python -m repro list

Figures print the same series the paper plots; ``--requests`` trades
precision for speed (defaults are publication-sized), ``--quick`` picks
a small smoke-test size per command.

Every campaign is one code path: ``chaos``, ``resilience``,
``overload`` and ``autoscale`` are aliases of ``scenario --spec <name>``
(builtin specs in :data:`repro.experiments.scenario.BUILTIN_SCENARIOS`),
so ``--oracle``, ``--export-dir``, ``--validate``, ``--engine`` and the
result cache behave identically for all of them and for spec files.

Sweep commands memoize results in a persistent on-disk cache (default
``.repro-cache/``, or ``$REPRO_CACHE_DIR``; see
:mod:`repro.experiments.cache`), so a re-run with unchanged configs
costs seconds. ``--no-cache`` bypasses it; ``--cache-dir`` relocates
it. ``--engine calendar`` runs the second event queue, the heap's
differential partner: slower, bit-identical (``parity`` proves it).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, Sequence

from repro.core.registry import available_policies
from repro.experiments import figures
from repro.verify import InvariantViolation
from repro.workload.workloads import available_workloads

__all__ = ["main"]

#: per-command --quick request sizes (small but shape-preserving)
_QUICK_REQUESTS = {
    "fig2": 30_000,
    "fig3": 2_000,
    "fig4": 2_000,
    "fig6": 2_000,
    "table2": 3_000,
    "profile": 3_000,
    "messages": 2_000,
    "compare": 600,
    "parity": 800,
    "chaos": 600,
    "resilience": 600,
    "overload": 600,
    "autoscale": 500,
    "scenario": 400,
    # fuzz sizes its cases itself; --quick shrinks the case budget, not
    # the per-case request count (handled in _fuzz, not via --requests)
    "fuzz": 0,
    "trace": 800,
    "fastparity": 2_000,
    "drive": 240,
}


def _parse_policy_params(pairs: Sequence[str]) -> dict:
    """``key=value`` pairs -> typed params (int, float, bool, then str)."""
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--policy-param expects key=value, got {pair!r}")
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return params


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=``: an int no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _udp_port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _sweep_kwargs(args) -> dict:
    """cache/engine keyword arguments for the sweep-driven commands."""
    return {"cache": args.result_cache, "engine": args.engine}


def _table1(args) -> str:
    return figures.table1_traces(seed=args.seed).render()


def _fig2(args) -> str:
    data = figures.figure2_inaccuracy(
        n_requests=args.requests or 300_000, seed=args.seed
    )
    bounds = ", ".join(
        f"{load:.0%}: {bound:.2f}" for load, bound in data.extras["upperbound"].items()
    )
    return data.render() + f"\nEq.1 upper bounds (Poisson/Exp): {bounds}"


def _fig3(args) -> str:
    data = figures.figure3_broadcast(
        n_requests=args.requests or 20_000, seed=args.seed,
        parallel=not args.serial, **_sweep_kwargs(args),
    )
    return data.render()


def _fig4(args) -> str:
    data = figures.figure4_pollsize(
        n_requests=args.requests or 20_000, seed=args.seed,
        model="simulation", parallel=not args.serial, **_sweep_kwargs(args),
    )
    return data.render()


def _fig6(args) -> str:
    data = figures.figure6_pollsize(
        n_requests=args.requests or 15_000, seed=args.seed,
        parallel=not args.serial, **_sweep_kwargs(args),
    )
    return data.render()


def _table2(args) -> str:
    data = figures.table2_discard(
        n_requests=args.requests or 25_000, seed=args.seed,
        parallel=not args.serial, **_sweep_kwargs(args),
    )
    return data.render()


def _profile(args) -> str:
    profile, result = figures.poll_profile_section32(
        n_requests=args.requests or 25_000, seed=args.seed
    )
    return (
        "== §3.2 poll profile (d=3, 90% load, 16 servers) ==\n"
        + profile.row()
        + "\npaper: >10ms: 8.10%   >20ms: 5.60%"
        + f"\n(nominal rho: {result.nominal_rho:.3f})"
    )


def _messages(args) -> str:
    data = figures.message_scaling_section24(
        n_requests=args.requests or 10_000, seed=args.seed,
        parallel=not args.serial, **_sweep_kwargs(args),
    )
    return data.render()


def _compare(args) -> str:
    """Race the headline policies with seed-level confidence intervals."""
    from repro.experiments import SimulationConfig, compare_policies

    base = SimulationConfig(
        workload=args.workload, load=args.load,
        n_requests=args.requests or 8_000, seed=args.seed,
        engine=args.engine or "heap",
    )
    comparison = compare_policies(
        base,
        policies=[
            ("random", "random", {}),
            ("round-robin", "round_robin", {}),
            ("least-connections", "least_connections", {}),
            ("jiq", "jiq", {}),
            ("polling d=2", "polling", {"poll_size": 2}),
            ("polling d=3 +discard", "polling",
             {"poll_size": 3, "discard_slow": True}),
            ("ideal", "ideal", {}),
        ],
        n_replications=args.replications,
        parallel=not args.serial,
    )
    lines = [
        f"policy comparison: {args.workload} at {args.load:.0%} load, "
        f"{args.replications} replications"
    ]
    lines += [result.row() for _label, result in comparison]
    return "\n".join(lines)


def _scenario(args) -> str:
    """Every campaign: resolve a spec (builtin name or file), expand
    it, run it, print its report.

    ``repro chaos|resilience|overload|autoscale`` are aliases of
    ``repro scenario --spec <command>``; bare ``repro scenario`` runs
    the ``composed`` builtin.
    """
    from repro.experiments.scenario import (
        BUILTIN_SCENARIOS,
        ScenarioError,
        builtin_spec,
        load_spec,
    )

    alias = args.command if args.command in BUILTIN_SCENARIOS else "composed"
    ref = args.spec or alias
    try:
        if ref in BUILTIN_SCENARIOS:
            # No --requests (and no --quick preset): the builder's own
            # default is the publication size.
            sizing = {} if args.requests is None else {"n_requests": args.requests}
            spec = builtin_spec(ref, seed=args.seed, quick=args.quick, **sizing)
        else:
            spec = load_spec(ref)
        # Expansion validates every axis; --validate stops here.
        cells = spec.expand()
    except ScenarioError as error:
        raise SystemExit(f"scenario validation FAILED: {error}")
    if args.validate:
        lines = [
            f"scenario OK: {spec.name!r} expands to {len(cells)} cells",
            f"  policies:  {', '.join(p.label for p in spec.policies)}",
            f"  workloads: {', '.join(w.label for w in spec.workloads)}",
            f"  loads:     {', '.join(f'{v:g}' for v in spec.loads)}",
            f"  modes:     {', '.join(m.label or '(default)' for m in spec.modes)}",
            f"  faults:    {', '.join(f.label or '(none)' for f in spec.faults)}",
            f"  scales:    {', '.join(s.label or '(default)' for s in spec.scales)}",
        ]
        return "\n".join(lines)
    report = spec.run(
        parallel=not args.serial,
        archive=args.export_dir,
        verify=args.oracle,
        **_sweep_kwargs(args),
    )
    return report.render()


def _fuzz(args) -> str:
    """Deterministic chaos fuzzer under the invariant oracle."""
    from pathlib import Path

    from repro.verify import fuzz as fuzz_mod

    if args.validate:
        # Validate reproducer specs without running them: the --replay
        # path if given, else every committed corpus entry.
        paths = (
            [Path(args.replay)]
            if args.replay
            else sorted(Path("tests/verify/corpus").glob("*.json"))
        )
        if not paths:
            raise SystemExit("fuzz --validate: no reproducer specs found")
        problems: list[str] = []
        for path in paths:
            issues = fuzz_mod.validate_spec_file(path)
            if issues:
                problems.append(f"{path}:")
                problems.extend(f"  {issue}" for issue in issues)
        if problems:
            raise SystemExit(
                "fuzz --validate FAILED:\n" + "\n".join(problems)
            )
        return f"fuzz --validate OK: {len(paths)} reproducer spec(s) well-formed"
    if args.replay:
        outcome = fuzz_mod.replay(args.replay)
        if not outcome.ok:
            raise SystemExit(
                f"fuzz --replay {args.replay}: {outcome.status} "
                f"[{outcome.engine}] {outcome.message}"
            )
        return (
            f"fuzz --replay {args.replay}: ok on both engines "
            f"(no violation, no divergence)"
        )
    budget = args.budget if args.budget is not None else (25 if args.quick else 100)
    out_dir = args.export_dir or ".fuzz-findings"
    report = fuzz_mod.fuzz_campaign(
        seed=args.seed,
        budget=budget,
        out_dir=out_dir,
        progress=lambda line: print(f"  [fuzz] {line}", file=sys.stderr),
    )
    if not report.clean:
        raise SystemExit(report.render())
    return report.render()


def _trace(args) -> str:
    """Telemetry run: lifecycle spans, staleness report, sampled series."""
    import numpy as np

    from repro.experiments import (
        SimulationConfig,
        run_with_telemetry,
        save_telemetry,
        staleness_response_table,
        validate_telemetry_dir,
    )

    config = SimulationConfig(
        policy=args.policy,
        policy_params=_parse_policy_params(args.policy_param),
        workload=args.workload,
        load=args.load,
        n_requests=args.requests or 5_000,
        seed=args.seed,
        engine=args.engine or "heap",
        telemetry={"spans": True, "sample_interval": args.sample_interval},
    )
    result, report = run_with_telemetry(config)
    lines = [
        f"== request-lifecycle telemetry: {config.describe()} ==",
        f"spans: {len(report.spans)} (dropped: {report.spans_dropped})  "
        f"samples: {len(report.series['time'])} @ {report.sample_interval * 1e3:g}ms  "
        f"mean response: {result.mean_response_time_ms:.3f}ms",
        "",
        "-- response time vs decision-information staleness --",
        staleness_response_table(report.staleness(), report.response_times()),
    ]
    queue_columns = [name for name in report.series if name.endswith(".queue")]
    if queue_columns:
        peaks = [float(report.series[name].max()) for name in queue_columns]
        means = [float(report.series[name].mean()) for name in queue_columns]
        lines += [
            "",
            "-- sampled series overview --",
            f"per-server queue: mean {np.mean(means):.2f}, "
            f"peak {max(peaks):.0f}; "
            f"in-flight messages: peak {report.series['net.inflight'].max():.0f}; "
            f"dropped: {report.series['net.dropped'][-1]:.0f}",
        ]
    accounting = report.accounting
    messages = ", ".join(f"{k}={v}" for k, v in accounting["messages"].items())
    policy_counters = ", ".join(f"{k}={v}" for k, v in accounting["policy"].items())
    lines += ["", f"messages: {messages}"]
    if policy_counters:
        lines.append(f"policy counters: {policy_counters}")
    if args.export_dir:
        paths = save_telemetry(report, args.export_dir)
        checked = validate_telemetry_dir(args.export_dir)
        lines += [
            "",
            f"exported {checked['spans']} spans, {checked['series']} samples x "
            f"{checked['series_columns']} series -> {paths['spans'].parent} "
            "(schema validated)",
        ]
    return "\n".join(lines)


def _parity(args) -> str:
    """Prove heap and calendar engines produce bit-identical results."""
    from repro.experiments import engine_parity, parity_suite

    suite = parity_suite(n_requests=args.requests or 1_200, seed=args.seed)
    report = engine_parity(suite, parallel=not args.serial)
    if not report.ok:
        raise SystemExit(report.render())
    return report.render()


def _fastparity(args) -> str:
    """Fast-engine validation: tier 2 (distributions vs heap at N=8),
    then tier 3 (mean response vs the mean-field limit at N=1000)."""
    from repro.experiments.parity import (
        distribution_parity,
        fastpath_suite,
        meanfield_check,
        meanfield_suite,
    )

    suite = fastpath_suite(n_requests=args.requests or 4_000, seed=args.seed)
    # Tier 3 keeps its own size: its window has to span the relaxation
    # times the 5% band assumes (see meanfield_suite).
    reports = [
        distribution_parity(suite),
        meanfield_check(meanfield_suite(seed=args.seed)),
    ]
    output = "\n".join(report.render() for report in reports)
    if not all(report.ok for report in reports):
        raise SystemExit(output)
    return output


def _serve(args) -> str:
    """Run one standalone live UDP server node until the time limit."""
    import asyncio

    from repro.live.clock import WallClock
    from repro.live.server import LiveServer

    async def _run() -> str:
        loop = asyncio.get_running_loop()
        server = LiveServer(
            0,
            WallClock(loop),
            workers=args.workers,
            mode=args.live_mode,
        )
        transport, _ = await loop.create_datagram_endpoint(
            lambda: server, local_addr=("127.0.0.1", args.port)
        )
        try:
            host, port = server.address
            print(
                f"repro serve: node 0 on {host}:{port} "
                f"(mode={args.live_mode}, workers={args.workers}; "
                f"stopping after --time-limit {args.time_limit:g}s or Ctrl-C)",
                flush=True,
            )
            await asyncio.sleep(args.time_limit)
        finally:
            server.close()
            transport.close()
        counters = ", ".join(f"{k}={v}" for k, v in server.counters().items())
        return f"serve: stopped after {args.time_limit:g}s ({counters})"

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return "serve: interrupted"


def _drive(args) -> str:
    """Live loopback poll-size ladder vs the calibrated simulation."""
    from dataclasses import replace

    from repro.live.harness import (
        LiveRunConfig,
        drive_comparison,
        render_comparison_table,
        run_loopback,
    )

    base = LiveRunConfig(
        policy_params=_parse_policy_params(args.policy_param),
        load=args.live_load,
        n_servers=args.live_servers,
        n_requests=args.requests or 960,
        seed=args.seed,
        mode=args.live_mode,
        workers=args.workers,
        sample_interval=args.sample_interval,
        time_limit=args.time_limit,
    )
    try:
        poll_sizes = tuple(
            int(part) for part in args.poll_sizes.split(",") if part.strip()
        )
    except ValueError:
        raise SystemExit(f"--poll-sizes expects a CSV of ints: {args.poll_sizes!r}")
    if not poll_sizes:
        raise SystemExit("--poll-sizes must name at least one poll size")
    comparison = drive_comparison(
        base, poll_sizes=poll_sizes, compare_sim=not args.no_compare_sim
    )
    lines = [
        f"== sim-vs-real poll-size ladder: {base.n_servers} loopback servers @ "
        f"{base.load:.0%} per-server load, {base.n_requests} requests, "
        f"mode={base.mode}, seed={base.seed} ==",
        render_comparison_table(comparison),
    ]
    if args.export_dir or args.record_trace:
        # One extra instrumented run at the largest poll size: the ladder
        # itself stays uninstrumented so its timings are undisturbed.
        instrumented = replace(
            base,
            policy="polling",
            policy_params={**base.policy_params, "poll_size": max(poll_sizes)},
            telemetry=bool(args.export_dir),
        )
        result = run_loopback(instrumented)
        if args.export_dir:
            from repro.experiments import save_telemetry, validate_telemetry_dir

            paths = save_telemetry(result.telemetry_report, args.export_dir)
            checked = validate_telemetry_dir(args.export_dir)
            lines += [
                "",
                f"exported {checked['spans']} live spans, "
                f"{checked['series']} samples x {checked['series_columns']} "
                f"series -> {paths['spans'].parent} (schema validated)",
            ]
        if args.record_trace:
            from repro.workload.replay import live_trace, save_arrivals

            trace = live_trace(
                result.arrival_epochs, result.service_times, source="repro-drive"
            )
            save_arrivals(trace, args.record_trace)
            lines += [
                "",
                f"recorded {len(trace)} live arrivals (wall-clock epochs "
                f"normalized to t=0) -> {args.record_trace}",
            ]
    return "\n".join(lines)


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "table1": (_table1, "Table 1: trace statistics"),
    "fig2": (_fig2, "Figure 2: load-index inaccuracy vs delay"),
    "fig3": (_fig3, "Figure 3: broadcast frequency sweep"),
    "fig4": (_fig4, "Figure 4: poll size (simulation model)"),
    "fig6": (_fig6, "Figure 6: poll size (prototype model)"),
    "table2": (_table2, "Table 2: discarding slow-responding polls"),
    "profile": (_profile, "§3.2 slow-poll profile"),
    "messages": (_messages, "§2.4 message scaling ablation"),
    "compare": (_compare, "policy comparison with confidence intervals"),
    "parity": (_parity, "heap vs calendar engine determinism check"),
    "chaos": (_scenario, "chaos campaign: resilience under injected faults"),
    "resilience": (_scenario, "naive vs hardened reliability layer under chaos"),
    "overload": (_scenario, "overload campaign: goodput past saturation"),
    "autoscale": (_scenario, "autoscale campaign: goodput vs provisioning cost"),
    "scenario": (_scenario, "declarative scenario composition (spec file or builtin)"),
    "fuzz": (_fuzz, "deterministic chaos fuzzer under the invariant oracle"),
    "trace": (_trace, "request-lifecycle telemetry + staleness report"),
    "fastparity": (_fastparity, "fast engine vs heap distributions and vs mean-field theory"),
    "serve": (_serve, "standalone live UDP server node (loopback prototype)"),
    "drive": (_drive, "live loopback poll-size ladder vs calibrated simulation"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of 'Cluster Load Balancing "
        "for Fine-grain Network Services' (IPPS 2002).",
    )
    parser.add_argument("command", choices=list(_COMMANDS) + ["list"],
                        help="which artifact to regenerate")
    parser.add_argument("--requests", type=_int_at_least(10), default=None,
                        help="requests per simulated point (default: publication size)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size (overridden by --requests)")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--serial", action="store_true",
                        help="disable the process-pool sweep")
    parser.add_argument("--engine", choices=["heap", "calendar", "fast"], default=None,
                        help="execution engine (default: heap; 'calendar' is "
                             "its slower, bit-identical differential partner "
                             "for `parity` and the fuzzer; 'fast' is the "
                             "numpy batch engine and rejects configs it "
                             "cannot represent)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location (default: .repro-cache "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--workload", default="poisson_exp",
                        choices=available_workloads(), metavar="NAME",
                        help="workload for `compare` (default: poisson_exp)")
    parser.add_argument("--load", type=_positive_float, default=0.9,
                        help="load level for `compare` (default: 0.9)")
    parser.add_argument("--replications", type=_int_at_least(1), default=5,
                        help="replications for `compare` (default: 5)")
    parser.add_argument("--policy", default="polling",
                        choices=available_policies(), metavar="NAME",
                        help="policy for `trace` (default: polling)")
    parser.add_argument("--policy-param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="policy parameter for `trace` (repeatable)")
    parser.add_argument("--sample-interval", type=_positive_float, default=0.05,
                        help="telemetry series grid spacing in simulated "
                             "seconds for `trace` (default: 0.05)")
    parser.add_argument("--export-dir", default=None,
                        help="export `trace` telemetry (spans.jsonl, "
                             "series.csv, accounting.json) to this directory; "
                             "for `scenario` and its aliases `chaos`/"
                             "`resilience`/`overload`/`autoscale`, archive "
                             "every cell's result to this path")
    parser.add_argument("--spec", default=None, metavar="NAME_OR_PATH",
                        help="for `scenario`: a builtin name (composed, "
                             "chaos, resilience, overload, autoscale; "
                             "default: 'composed') or a .json/.yaml spec file")
    parser.add_argument("--validate", action="store_true",
                        help="for `scenario`: expand and validate the spec "
                             "without running it (exits nonzero naming the "
                             "offending axis on failure); for `fuzz`: "
                             "validate reproducer specs (--replay PATH or "
                             "the committed corpus) without running them")
    parser.add_argument("--oracle", action="store_true",
                        help="for `scenario` (builtin or spec file) and its "
                             "aliases `chaos`/`resilience`/`overload`/"
                             "`autoscale`: "
                             "run every cell under the inline invariant oracle "
                             "(exits nonzero on the first violation; results "
                             "are bit-identical to oracle-off runs)")
    parser.add_argument("--budget", type=_int_at_least(1), default=None,
                        help="for `fuzz`: number of generated cases "
                             "(default: 100, or 25 with --quick)")
    parser.add_argument("--replay", default=None, metavar="PATH",
                        help="for `fuzz`: replay one reproducer spec on both "
                             "engines instead of generating cases (with "
                             "--validate: validate it without running)")
    parser.add_argument("--live-servers", type=_int_at_least(1), default=4,
                        help="for `drive`: loopback server count (default: 4)")
    parser.add_argument("--live-load", type=_positive_float, default=0.15,
                        help="for `drive`: per-server load; n_servers*load "
                             "must stay <= 0.85 in spin mode since the whole "
                             "loopback harness shares one CPU (default: 0.15)")
    parser.add_argument("--live-mode", choices=["spin", "sleep"], default="spin",
                        help="for `serve`/`drive`: service work burns real CPU "
                             "(spin) or just waits (sleep) (default: spin)")
    parser.add_argument("--poll-sizes", default="2,4,8", metavar="CSV",
                        help="for `drive`: poll-size ladder (default: 2,4,8)")
    parser.add_argument("--no-compare-sim", action="store_true",
                        help="for `drive`: skip the calibrated simulation "
                             "baseline columns")
    parser.add_argument("--time-limit", type=_positive_float, default=60.0,
                        help="for `serve`/`drive`: hard wall-clock bound per "
                             "live run in seconds (default: 60)")
    parser.add_argument("--record-trace", default=None, metavar="PATH",
                        help="for `drive`: record live arrivals to a replay "
                             "trace (.csv/.jsonl); wall-clock epochs are "
                             "normalized to t=0 on save")
    parser.add_argument("--port", type=_udp_port, default=0,
                        help="for `serve`: UDP port (default: 0 = ephemeral)")
    parser.add_argument("--workers", type=_int_at_least(1), default=1,
                        help="for `serve`/`drive`: worker slots per server "
                             "(default: 1)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (_fn, description) in _COMMANDS.items():
            print(f"  {name:<10s} {description}")
        return 0
    if args.quick and args.requests is None:
        if args.command in _QUICK_REQUESTS:
            args.requests = _QUICK_REQUESTS[args.command]
        else:
            print(
                f"[--quick has no preset for {args.command!r}; "
                "running at the publication size]",
                file=sys.stderr,
            )
    args.result_cache = None
    if not args.no_cache:
        from repro.experiments.cache import ResultCache

        args.result_cache = ResultCache(args.cache_dir)
    runner, _description = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        output = runner(args)
    except InvariantViolation as violation:
        raise SystemExit(f"invariant violation: {violation}")
    elapsed = time.perf_counter() - started
    print(output)
    cache = args.result_cache
    if cache is not None and (cache.hits or cache.misses):
        print(
            f"[cache: {cache.hits} hits, {cache.misses} misses "
            f"-> {str(cache.root)}]"
        )
    print(f"\n[{args.command} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

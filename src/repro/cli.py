"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro table1
    python -m repro fig2
    python -m repro fig3  --requests 10000
    python -m repro fig6  --requests 10000 --seed 3
    python -m repro table2
    python -m repro profile
    python -m repro messages
    python -m repro parity
    python -m repro fastparity --quick
    python -m repro chaos --quick         # resilience, overload, autoscale
    python -m repro scenario --quick
    python -m repro scenario --spec overload --oracle --export-dir runs.json
    python -m repro scenario --spec examples/grid.json --validate
    python -m repro trace --policy broadcast --policy-param mean_interval=0.1
    python -m repro drive --quick
    python -m repro serve --port 9000 --time-limit 30
    python -m repro list
    python -m repro fig3 -h

One table, per-command parsers: :data:`_FLAGS` declares each flag
once, a :data:`_COMMANDS` row names the flags its handler reads, and
``repro <command> -h`` lists exactly those. A flag the command would
not read is a usage error (exit 2, ``unrecognized arguments``), never
accepted and dropped.

Figures print the same series the paper plots; ``--requests`` trades
precision for speed (defaults are publication-sized), ``--quick`` picks
the row's smoke-test size.

Every sweep is one code path: the paper's ``fig3``, ``fig4``, ``fig6``,
``table2`` and ``messages``, and the ``chaos``, ``resilience``,
``overload`` and ``autoscale`` campaigns, are aliases of ``scenario
--spec <name>`` (builtin specs in
:data:`repro.experiments.scenario.BUILTIN_SCENARIOS`) and take its flag
group, :data:`_CAMPAIGN`, as spec files do.

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
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from repro.core.registry import available_policies
from repro.verify.oracle import InvariantViolation
from repro.workload.workloads import available_workloads

__all__ = ["main"]


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


def _csv_file(text: str) -> str:
    if not text.endswith(".csv"):
        raise argparse.ArgumentTypeError(f"must be a .csv path, got {text}")
    return text


def _table1(args) -> str:
    from repro.experiments import figures

    return figures.table1_traces(seed=args.seed).render()


def _fig2(args) -> str:
    from repro.experiments import figures

    data = figures.figure2_inaccuracy(n_requests=args.requests, seed=args.seed)
    bounds = ", ".join(
        f"{load:.0%}: {bound:.2f}" for load, bound in data.extras["upperbound"].items()
    )
    return data.render() + f"\nEq.1 upper bounds (Poisson/Exp): {bounds}"


def _profile(args) -> str:
    from repro.experiments import figures

    profile, result = figures.poll_profile_section32(
        n_requests=args.requests, seed=args.seed
    )
    return (
        "== §3.2 poll profile (d=3, 90% load, 16 servers) ==\n"
        + profile.row()
        + "\npaper: >10ms: 8.10%   >20ms: 5.60%"
        + f"\n(nominal rho: {result.nominal_rho:.3f})"
    )


def _compare(args) -> str:
    """Race the headline policies with seed-level confidence intervals."""
    from repro.experiments import SimulationConfig, compare_policies

    base = SimulationConfig(
        workload=args.workload, load=args.load,
        n_requests=args.requests, seed=args.seed,
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
    it, run it, print its report. The alias rows (the paper's sweeps
    and the extension campaigns) pin ``spec`` to their own name; bare
    ``repro scenario`` runs the ``composed`` builtin."""
    from dataclasses import replace

    from repro.experiments.scenario import (
        BUILTIN_SCENARIOS,
        ScenarioError,
        builtin_spec,
        load_spec,
    )

    ref = args.spec or "composed"
    try:
        if ref in BUILTIN_SCENARIOS:
            # No --requests (and no --quick): the builder's own default
            # is the publication size.
            sizing = {} if args.requests is None else {"n_requests": args.requests}
            spec = builtin_spec(ref, seed=args.seed or 0, quick=args.quick, **sizing)
        else:
            # main has turned --quick into a size by now, so ask it first
            given = (
                "--seed" if args.seed is not None
                else "--quick" if args.quick
                else "--requests" if args.requests is not None
                else None
            )
            if given:
                print(
                    f"repro {args.command}: error: argument {given}: sizes builtin "
                    f"specs only; the file {ref!r} carries its own seed and n_requests",
                    file=sys.stderr,
                )
                raise SystemExit(2)
            spec = load_spec(ref)
        if args.engine:
            spec = replace(spec, engine=args.engine)
        # Expansion validates every axis, for the engine that will run
        # them; --validate stops here.
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
        cache=args.result_cache,
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
    report = fuzz_mod.fuzz_campaign(
        seed=args.seed,
        budget=budget,
        out_dir=args.export_dir or ".fuzz-findings",
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
        n_requests=args.requests,
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

    suite = parity_suite(n_requests=args.requests, seed=args.seed)
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

    suite = fastpath_suite(n_requests=args.requests, seed=args.seed)
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

    from repro.live.clock import WallClock, run
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
        return run(_run())
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
        n_requests=args.requests,
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


#: every flag, declared once: dest (the option string with underscores)
#: -> ``add_argument`` keywords. Which commands take it is the rows' business.
_FLAGS: dict[str, dict[str, Any]] = {
    "requests": dict(type=_int_at_least(10),
                     help="requests per simulated point (default: publication size)"),
    "quick": dict(action="store_true", help="smoke-test size (--requests overrides)"),
    "seed": dict(type=int, default=0, help="experiment seed"),
    "serial": dict(action="store_true", help="disable the process-pool sweep"),
    "engine": dict(choices=["heap", "calendar", "fast"],
                   help="execution engine (default: heap; calendar is its slower, "
                        "bit-identical differential partner; fast is the numpy "
                        "batch engine and rejects configs it cannot represent)"),
    "cache_dir": dict(help="result cache location (default: .repro-cache "
                           "or $REPRO_CACHE_DIR)"),
    "no_cache": dict(action="store_true", help="disable the persistent result cache"),
    "workload": dict(default="poisson_exp", choices=available_workloads(),
                     metavar="NAME", help="workload (default: poisson_exp)"),
    "load": dict(type=_positive_float, default=0.9, help="load level (default: 0.9)"),
    "replications": dict(type=_int_at_least(1), default=5,
                         help="seeds per policy (default: 5)"),
    "policy": dict(default="polling", choices=available_policies(),
                   metavar="NAME", help="policy (default: polling)"),
    "policy_param": dict(action="append", default=[], metavar="KEY=VALUE",
                         help="policy parameter (repeatable)"),
    "sample_interval": dict(type=_positive_float, default=0.05,
                            help="telemetry series grid spacing in seconds "
                                 "(default: 0.05)"),
    "export_dir": dict(help="export telemetry (spans.jsonl, series.csv, "
                            "accounting.json) to this directory"),
    "spec": dict(metavar="NAME_OR_PATH",
                 help="a builtin name (composed, chaos, resilience, overload, "
                      "autoscale, fig3, fig4, fig6, table2, messages; default: "
                      "composed) or a .json spec file, which carries its "
                      "own seed and size"),
    "validate": dict(action="store_true",
                     help="expand and validate the spec without running it "
                          "(exits nonzero naming the offending axis)"),
    "oracle": dict(action="store_true",
                   help="run every cell under the inline invariant oracle "
                        "(exits nonzero on the first violation; results are "
                        "bit-identical to oracle-off runs)"),
    "budget": dict(type=_int_at_least(1),
                   help="number of generated cases (default: 100; 25 with --quick)"),
    "replay": dict(metavar="PATH",
                   help="replay one reproducer spec on both engines instead "
                        "of generating cases (with --validate: validate it "
                        "without running)"),
    "live_servers": dict(type=_int_at_least(1), default=4,
                         help="loopback server count (default: 4)"),
    "live_load": dict(type=_positive_float, default=0.15,
                      help="per-server load; n_servers*load must stay <= 0.85 "
                           "in spin mode since the whole loopback harness "
                           "shares one CPU (default: 0.15)"),
    "live_mode": dict(choices=["spin", "sleep"], default="spin",
                      help="service work burns real CPU (spin) or just waits "
                           "(sleep) (default: spin)"),
    "poll_sizes": dict(default="2,4,8", metavar="CSV",
                       help="poll-size ladder (default: 2,4,8)"),
    "no_compare_sim": dict(action="store_true",
                           help="skip the calibrated simulation baseline columns"),
    "time_limit": dict(type=_positive_float, default=60.0,
                       help="hard wall-clock bound per live run in seconds "
                            "(default: 60)"),
    "record_trace": dict(type=_csv_file, metavar="PATH",
                         help="record live arrivals to a replay trace "
                              "(.csv); wall-clock epochs are normalized "
                              "to t=0 on save"),
    "port": dict(type=_udp_port, default=0, help="UDP port (default: 0 = ephemeral)"),
    "workers": dict(type=_int_at_least(1), default=1,
                    help="worker slots per server (default: 1)"),
}


class _Command(NamedTuple):
    """One command: everything ``build_parser`` and ``main`` know of it."""

    handler: Callable[[argparse.Namespace], str]
    help: str
    #: the :data:`_FLAGS` the handler reads
    flags: tuple[str, ...] = ()
    #: ``(--quick, publication)`` request sizes; a row that has them takes
    #: ``--requests``/``--quick`` and ``main`` resolves ``args.requests``
    #: (to ``None`` where the callee sizes itself) before the handler runs
    sizes: Optional[tuple[int, Optional[int]]] = None
    #: ``add_argument`` keywords that differ on this command
    overrides: Mapping[str, dict[str, Any]] = {}
    #: dests the row sets itself in place of taking the flag
    pinned: Mapping[str, Any] = {}


#: what ``scenario`` and its aliases share, so they cannot drift: the
#: process-pool sweep through the result cache (``main`` builds a
#: ``ResultCache`` for the rows that take ``no_cache``, and no other)
#: plus validation, the oracle and the archive
_CAMPAIGN = ("seed", "serial", "engine", "cache_dir", "no_cache",
             "validate", "oracle", "export_dir")
_CAMPAIGN_OVERRIDES = {
    # None tells "given" from the default: a spec file has its own seed
    "seed": dict(default=None, help="seed of a builtin spec (default: 0)"),
    "export_dir": dict(help="archive every cell's result to this path"),
}


def _aliases(*rows: tuple[str, str, int]) -> dict[str, _Command]:
    """Rows aliasing ``scenario --spec <name>``, one per ``(name, help,
    --quick size)``: the spec is pinned, not taken, and a builtin's own
    default is its publication size."""
    return {
        name: _Command(_scenario, help, _CAMPAIGN, (quick_requests, None),
                       _CAMPAIGN_OVERRIDES, pinned={"spec": name})
        for name, help, quick_requests in rows
    }


_COMMANDS: dict[str, _Command] = {
    "table1": _Command(_table1, "Table 1: trace statistics", ("seed",)),
    "fig2": _Command(_fig2, "Figure 2: load-index inaccuracy vs delay",
                     ("seed",), (30_000, 300_000)),
    **_aliases(
        ("fig3", "Figure 3: broadcast frequency sweep", 2_000),
        ("fig4", "Figure 4: poll size (simulation model)", 2_000),
        ("fig6", "Figure 6: poll size (prototype model)", 2_000),
        ("table2", "Table 2: discarding slow-responding polls", 3_000),
    ),
    "profile": _Command(_profile, "§3.2 slow-poll profile",
                        ("seed",), (3_000, 25_000)),
    **_aliases(("messages", "§2.4 message scaling ablation", 2_000)),
    "compare": _Command(_compare, "policy comparison with confidence intervals",
                        ("seed", "serial", "engine", "workload", "load",
                         "replications"), (600, 8_000)),
    "parity": _Command(_parity, "heap vs calendar engine determinism check",
                       ("seed", "serial"), (800, 1_200)),
    **_aliases(
        ("chaos", "chaos campaign: resilience under injected faults", 600),
        ("resilience", "naive vs hardened reliability layer under chaos", 600),
        ("overload", "overload campaign: goodput past saturation", 600),
        ("autoscale", "autoscale campaign: goodput vs provisioning cost", 500),
    ),
    "scenario": _Command(_scenario,
                         "declarative scenario composition (spec file or builtin)",
                         ("spec", *_CAMPAIGN), (400, None), _CAMPAIGN_OVERRIDES),
    "fuzz": _Command(
        _fuzz, "deterministic chaos fuzzer under the invariant oracle",
        ("seed", "quick", "budget", "replay", "validate", "export_dir"),
        overrides={
            "quick": dict(help="a quarter of the default case budget"),
            "validate": dict(help="validate reproducer specs (--replay PATH or "
                                  "the committed corpus) without running them"),
            "export_dir": dict(help="where shrunk reproducers are written "
                                    "(default: .fuzz-findings)"),
        }),
    "trace": _Command(_trace, "request-lifecycle telemetry + staleness report",
                      ("seed", "engine", "policy", "policy_param", "workload",
                       "load", "sample_interval", "export_dir"), (800, 5_000)),
    "fastparity": _Command(
        _fastparity, "fast engine vs heap distributions and vs mean-field theory",
        ("seed",), (2_000, 4_000)),
    "serve": _Command(_serve, "standalone live UDP server node (loopback prototype)",
                      ("port", "workers", "live_mode", "time_limit")),
    "drive": _Command(
        _drive, "live loopback poll-size ladder vs calibrated simulation",
        ("seed", "policy_param", "live_servers", "live_load", "live_mode",
         "workers", "poll_sizes", "no_compare_sim", "sample_interval",
         "time_limit", "export_dir", "record_trace"),
        (240, 960)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of 'Cluster Load Balancing "
        "for Fine-grain Network Services' (IPPS 2002).",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands.add_parser("list", help="list the commands")
    for name, row in _COMMANDS.items():
        # no abbreviations: `drive --policy` must not pass for --policy-param
        sub = commands.add_parser(
            name, help=row.help, description=row.help, allow_abbrev=False
        )
        for dest in (("requests", "quick") if row.sizes else ()) + row.flags:
            keywords = {**_FLAGS[dest], **row.overrides.get(dest, {})}
            sub.add_argument("--" + dest.replace("_", "-"), **keywords)
        sub.set_defaults(**row.pinned)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, row in _COMMANDS.items():
            print(f"  {name:<10s} {row.help}")
        return 0
    row = _COMMANDS[args.command]
    if row.sizes and args.requests is None:
        args.requests = row.sizes[0 if args.quick else 1]
    cache = args.result_cache = None
    if "no_cache" in row.flags and not args.no_cache:
        from repro.experiments.cache import ResultCache

        cache = args.result_cache = ResultCache(args.cache_dir)
    started = time.perf_counter()
    try:
        output = row.handler(args)
    except InvariantViolation as violation:
        raise SystemExit(f"invariant violation: {violation}")
    elapsed = time.perf_counter() - started
    print(output)
    if cache is not None and (cache.hits or cache.misses):
        print(f"[cache: {cache.hits} hits, {cache.misses} misses -> {cache.root}]")
    print(f"\n[{args.command} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

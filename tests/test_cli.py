"""Tests for the command-line interface."""

import ast
import functools
import inspect

import pytest

from repro import cli
from repro.cli import build_parser, main


def test_parser_commands():
    parser = build_parser()
    args = parser.parse_args(["fig4", "--requests", "500", "--seed", "2"])
    assert args.command == "fig4"
    assert args.requests == 500
    assert args.seed == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5"])


#: flag -> an invocation that used to die with a traceback from inside
#: replicate / SimulationConfig / make_policy / make_workload / asyncio,
#: or (fuzz --budget, serve --time-limit) to pass having done nothing
BAD_ARGUMENTS = {
    "--replications": ["compare", "--replications", "0"],
    "--requests": ["fig3", "--requests", "5"],
    "--load": ["compare", "--load", "0"],
    "--policy": ["trace", "--policy", "nosuch"],
    "--workload": ["compare", "--workload", "nosuch"],
    "--budget": ["fuzz", "--budget", "-1"],
    "--sample-interval": ["trace", "--sample-interval", "0"],
    "--workers": ["serve", "--workers", "0"],
    "--port": ["serve", "--port", "99999"],
    "--live-servers": ["drive", "--live-servers", "0"],
    "--live-load": ["drive", "--live-load", "0"],
    "--time-limit": ["serve", "--time-limit", "-1"],
}


@pytest.mark.parametrize("flag", sorted(BAD_ARGUMENTS))
def test_bad_argument_exits_2_naming_the_flag(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(BAD_ARGUMENTS[flag])
    assert exit_info.value.code == 2
    assert f"error: argument {flag}:" in capsys.readouterr().err.splitlines()[-1]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig2", "fig3", "fig4", "fig6", "table2"):
        assert name in out


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Fine-Grain trace" in out
    assert "regenerated in" in out


def test_fig2_command_small(capsys):
    assert main(["fig2", "--requests", "30000"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "Eq.1" in out


def test_fig4_command_small(capsys):
    assert main(["fig4", "--requests", "2000", "--serial"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out and "poll-2" in out


def test_profile_command_small(capsys):
    assert main(["profile", "--requests", "3000"]) == 0
    out = capsys.readouterr().out
    assert ">10ms" in out


def test_compare_command_small(capsys):
    assert main(["compare", "--requests", "600", "--replications", "2",
                 "--serial", "--load", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "ideal" in out and "±" in out
    # Sorted ascending: the oracle line comes before random's.
    assert out.index("ideal") < out.index("random")


def test_parser_engine_and_cache_flags():
    parser = build_parser()
    args = parser.parse_args(["fig3", "--engine", "calendar",
                              "--cache-dir", "/tmp/x", "--no-cache", "--quick"])
    assert args.engine == "calendar"
    assert args.cache_dir == "/tmp/x"
    assert args.no_cache and args.quick
    with pytest.raises(SystemExit):
        parser.parse_args(["fig3", "--engine", "splay"])


def test_quick_sets_default_requests_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["fig4", "--quick", "--requests", "800", "--serial"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out  # --requests wins over --quick


def test_quick_without_preset_warns(capsys):
    """A command without request sizes has no --quick to accept (it used
    to warn and run at the publication size)."""
    with pytest.raises(SystemExit) as exit_info:
        main(["table1", "--quick"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


def test_cache_round_trip_via_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["fig4", "--requests", "600", "--serial"]) == 0
    first = capsys.readouterr().out
    assert "cache: 0 hits" in first
    assert main(["fig4", "--requests", "600", "--serial"]) == 0
    second = capsys.readouterr().out
    assert "0 misses" in second  # fully served from the cache
    # identical table either way
    table = lambda s: [l for l in s.splitlines() if "poll-" in l]  # noqa: E731
    assert table(first) == table(second)


def test_no_cache_flag_disables_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["fig4", "--requests", "600", "--serial", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cache:" not in out
    assert not any(tmp_path.iterdir())


def test_engine_flag_changes_nothing_numerically(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    outputs = []
    for engine in ("heap", "calendar"):
        assert main(["fig4", "--requests", "600", "--serial",
                     "--no-cache", "--engine", engine]) == 0
        out = capsys.readouterr().out
        outputs.append([l for l in out.splitlines() if "poll-" in l])
    assert outputs[0] == outputs[1]


def test_parity_command_small(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["parity", "--requests", "300", "--serial"]) == 0
    out = capsys.readouterr().out
    assert "engine parity: OK" in out


def test_policy_param_parsing():
    from repro.cli import _parse_policy_params

    params = _parse_policy_params(
        ["poll_size=3", "discard_slow=true", "mean_interval=0.1", "name=x"]
    )
    assert params == {
        "poll_size": 3, "discard_slow": True, "mean_interval": 0.1, "name": "x",
    }
    with pytest.raises(SystemExit):
        _parse_policy_params(["oops"])


def test_trace_command_small(capsys, tmp_path):
    out_dir = tmp_path / "telemetry"
    assert main(["trace", "--requests", "200", "--seed", "0",
                 "--export-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "request-lifecycle telemetry" in out
    assert "staleness" in out
    assert "schema validated" in out
    assert (out_dir / "spans.jsonl").exists()
    assert (out_dir / "series.csv").exists()
    assert (out_dir / "accounting.json").exists()


def test_resilience_command_small(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["resilience", "--requests", "300", "--serial", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "naive" in out and "hardened" in out
    assert "Reliability modes (identical fault schedules)" in out
    assert "hardened vs naive" in out


def test_trace_command_policy_params(capsys):
    assert main(["trace", "--requests", "200", "--seed", "1",
                 "--policy", "broadcast",
                 "--policy-param", "mean_interval=0.05"]) == 0
    out = capsys.readouterr().out
    assert "broadcast(mean_interval=0.05)" in out
    assert "broadcasts_sent" in out


def test_scenario_parser_flags():
    parser = build_parser()
    args = parser.parse_args(["scenario", "--spec", "examples/grid.json", "--validate"])
    assert args.command == "scenario"
    assert args.spec == "examples/grid.json"
    assert args.validate


def test_scenario_validate_builtin(capsys):
    assert main(["scenario", "--validate", "--quick", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "scenario OK" in out and "32 cells" in out
    assert "replay-bursty" in out  # the trace-replay axis is in the grid


def test_scenario_validate_names_the_offending_axis(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(
        '{"name": "bad", "policies": [{"label": "x", "policy": "no_such_policy"}]}'
    )
    with pytest.raises(SystemExit) as err:
        main(["scenario", "--spec", str(spec), "--validate", "--no-cache"])
    message = str(err.value)
    assert "FAILED" in message
    assert "axis 'policies'" in message and "no_such_policy" in message


@pytest.mark.parametrize("validate", [True, False], ids=["validate", "run"])
@pytest.mark.parametrize("argv,axis", [
    (["scenario", "--spec", "chaos"], "cluster_params"),
    (["fig6"], "config_overrides"),
], ids=["chaos", "fig6"])
def test_engine_is_applied_before_validation(argv, axis, validate):
    """``--engine`` reaches the spec before it is expanded, so a grid the
    fast engine cannot run fails validation naming the axis, with or
    without ``--validate`` — never a worker's FastpathUnsupportedError."""
    argv = [*argv, "--quick", "--serial", "--no-cache", "--engine", "fast"]
    with pytest.raises(SystemExit) as err:
        main(argv + (["--validate"] if validate else []))
    message = str(err.value)
    assert message.startswith("scenario validation FAILED")
    assert f"axis {axis!r}: engine 'fast'" in message


def test_scenario_runs_a_spec_file(tmp_path, capsys):
    import json

    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({
        "name": "tiny",
        "n_requests": 200,
        "n_servers": 4,
        "loads": [0.5, 0.8],
        "policies": [{"label": "rnd", "policy": "random"}],
    }))
    archive = tmp_path / "results.json"
    assert main(["scenario", "--spec", str(spec), "--serial", "--no-cache",
                 "--export-dir", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "Scenario 'tiny': 2 cells" in out
    assert "goodput_pct" in out
    from repro.experiments import load_results

    assert len(load_results(archive)) == 2


def test_scenario_cache_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    import json

    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({
        "name": "tiny", "n_requests": 200, "n_servers": 4,
        "policies": [{"label": "rnd", "policy": "random"}],
    }))
    assert main(["scenario", "--spec", str(spec), "--serial"]) == 0
    first = capsys.readouterr().out
    assert "cache: 0 hits, 1 misses" in first
    assert main(["scenario", "--spec", str(spec), "--serial"]) == 0
    second = capsys.readouterr().out
    assert "cache: 1 hits, 0 misses" in second


def test_campaign_alias_honours_export_dir(tmp_path, capsys):
    """The campaign commands go through the one scenario handler, so
    --export-dir archives every cell (it used to be silently dropped)."""
    from repro.experiments import load_results

    archive = tmp_path / "overload.json"
    assert main(["overload", "--requests", "200", "--serial", "--no-cache",
                 "--export-dir", str(archive)]) == 0
    # 2 modes x 2 policies x 4 offered loads
    assert len(load_results(archive)) == 16
    out = capsys.readouterr().out
    assert "Overload campaign: goodput past saturation" in out
    assert "adaptive vs static" in out


def test_scenario_oracle_flag_verifies_every_cell(tmp_path, capsys):
    """--oracle on `scenario` runs the cells under the invariant oracle
    (it used to parse and be ignored): the archived configs say so."""
    import json

    from repro.experiments import load_results

    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({
        "name": "tiny", "n_requests": 200, "n_servers": 4,
        "loads": [0.5, 0.8],
        "policies": [{"label": "rnd", "policy": "random"}],
    }))
    archive = tmp_path / "results.json"
    assert main(["scenario", "--spec", str(spec), "--oracle", "--serial",
                 "--no-cache", "--export-dir", str(archive)]) == 0
    results = load_results(archive)
    assert len(results) == 2
    assert all(r.config.verify_params == {"enabled": True} for r in results)


# ----------------------------------------------------------------------
# the command table: accepted (command, flag) pairs == read pairs
# ----------------------------------------------------------------------

@functools.cache
def _module_functions():
    """cli's module-level functions -> (``args.<dest>`` reads anywhere in
    the body, names of the module-level functions it calls)."""
    tree = ast.parse(inspect.getsource(cli))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    table = {}
    for name, node in defs.items():
        reads, calls = set(), set()
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"):
                reads.add(sub.attr)
            elif isinstance(sub, ast.Name) and sub.id in defs:
                calls.add(sub.id)
        table[name] = (reads, calls)
    return table


def _reads(function_name, table):
    """``args`` dests read by a function and, transitively, its helpers."""
    seen, stack, reads = set(), [function_name], set()
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            reads |= table[name][0]
            stack += table[name][1]
    return reads


#: Namespace attributes that are not flags: argparse's subparser dest,
#: and the cache object main hangs on the namespace for the handlers
_NOT_FLAGS = {"command", "result_cache"}


def _declared(row):
    sizing = {"requests", "quick"} if row.sizes else set()
    return set(row.flags) | set(row.pinned) | sizing


def test_flag_table_is_the_28_flags_and_every_one_has_a_command():
    assert len(cli._FLAGS) == 28
    used = set().union(*(_declared(row) for row in cli._COMMANDS.values()))
    assert used == set(cli._FLAGS)
    for row in cli._COMMANDS.values():
        assert not set(row.flags) & set(row.pinned)
        assert set(row.overrides) <= _declared(row)
        assert len(row.flags) == len(set(row.flags))


def test_main_reads_only_sizing_and_cache_flags_on_a_rows_behalf():
    assert _reads("main", _module_functions()) - _NOT_FLAGS == {
        "requests", "quick", "no_cache", "cache_dir",
    }


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_row_declares_exactly_the_flags_its_handler_reads(name):
    """Both directions: a declared flag nobody reads is the accepted-and-
    ignored bug; a read the row does not declare is an AttributeError."""
    row = cli._COMMANDS[name]
    handler = getattr(row.handler, "func", row.handler)  # functools.partial
    reads = _reads(handler.__name__, _module_functions())
    # what main reads for the row before the handler runs
    if row.sizes:
        reads |= {"requests", "quick"}
    if "no_cache" in row.flags:
        reads |= {"no_cache", "cache_dir"}
    assert reads - _NOT_FLAGS == _declared(row)


#: one well-formed value per value-taking flag
_SAMPLE_VALUES = {
    "requests": "100", "seed": "1", "engine": "heap", "cache_dir": "x",
    "workload": "poisson_exp", "load": "0.5", "replications": "2",
    "policy": "random", "policy_param": "a=1", "sample_interval": "0.1",
    "export_dir": "x", "spec": "chaos", "budget": "3", "replay": "x.json",
    "live_servers": "2", "live_load": "0.1", "live_mode": "sleep",
    "poll_sizes": "2", "time_limit": "1", "record_trace": "x.csv",
    "port": "0", "workers": "1",
}


@pytest.fixture(scope="module")
def parser():
    return build_parser()


@pytest.mark.parametrize("dest", sorted(cli._FLAGS))
@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_a_flag_parses_on_the_commands_that_declare_it_and_no_other(
    name, dest, parser, capsys
):
    row = cli._COMMANDS[name]
    argv = [name, "--" + dest.replace("_", "-")]
    if cli._FLAGS[dest].get("action") != "store_true":
        argv.append(_SAMPLE_VALUES[dest])
    if dest in _declared(row) - set(row.pinned):
        assert parser.parse_args(argv).command == name
    else:
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_alias_rows_pin_the_spec_they_are_named_after(parser):
    for name in ("chaos", "resilience", "overload", "autoscale"):
        assert parser.parse_args([name]).spec == name
    assert parser.parse_args(["scenario"]).spec is None


def test_command_help_lists_that_commands_flags_only(parser, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args(["fig3", "-h"])
    text = capsys.readouterr().out
    assert "--engine" in text and "--budget" not in text and "--spec" not in text
    assert len(text.splitlines()) <= 35


@pytest.mark.parametrize(
    "flag", [["--seed", "1"], ["--requests", "5000"], ["--quick"]], ids=lambda f: f[0]
)
def test_sizing_flag_on_a_spec_file_is_a_usage_error(flag, tmp_path, capsys):
    """The file's own seed and n_requests win, so the flag would be
    dropped (it used to be, silently)."""
    import json

    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"name": "tiny", "n_requests": 200, "n_servers": 4}))
    with pytest.raises(SystemExit) as exit_info:
        main(["scenario", "--spec", str(spec), "--validate", *flag])
    assert exit_info.value.code == 2
    assert f"error: argument {flag[0]}:" in capsys.readouterr().err
    # builtins keep taking all three
    assert main(["scenario", "--spec", "chaos", "--validate", *flag]) == 0

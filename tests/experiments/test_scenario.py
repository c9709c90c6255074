"""Scenario spec semantics: expansion, validation, files, reports."""

import json
import math
from pathlib import Path

import pytest

from repro.experiments.cache import config_key
from repro.experiments.chaos import (
    NAIVE_VS_HARDENED,
    chaos_scenario_spec,
)
from repro.experiments.overload import overload_scenario_spec
from repro.experiments.scenario import (
    FaultAxis,
    ModeAxis,
    PolicyAxis,
    ReportLayout,
    ScaleAxis,
    ScenarioError,
    ScenarioReport,
    ScenarioSpec,
    WorkloadAxis,
    composed_spec,
    load_spec,
    spec_from_dict,
)

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------

def test_expand_nesting_order_mode_workload_policy_load_fault_scale():
    spec = ScenarioSpec(
        name="order",
        policies=(PolicyAxis("p1", "random"), PolicyAxis("p2", "round_robin")),
        loads=(0.5, 0.9),
        modes=(ModeAxis("m1"), ModeAxis("m2")),
        faults=(FaultAxis("f1"), FaultAxis("f2", {"loss": 0.1})),
        scales=(ScaleAxis("s1", 4), ScaleAxis("s2", 8)),
        n_requests=100,
        label_format="{scenario} {policy} L={load:g} {mode} {fault} {scale}",
    )
    cells = spec.expand()
    assert len(cells) == 2 * 2 * 2 * 2 * 2
    # scale is innermost, mode outermost
    assert [c.scale for c in cells[:2]] == ["s1", "s2"]
    assert [c.fault for c in cells[:4]] == ["f1", "f1", "f2", "f2"]
    assert all(c.mode == "m1" for c in cells[:16])
    assert all(c.mode == "m2" for c in cells[16:])


def test_cells_carry_runnable_configs_with_axis_knobs():
    spec = ScenarioSpec(
        name="knobs",
        policies=(PolicyAxis("poll3", "polling", {"poll_size": 3}),),
        workloads=(WorkloadAxis("det", "poisson_deterministic"),),
        loads=(0.6,),
        modes=(ModeAxis("hard", reliability={"hedge_quantile": 0.9},
                        overload={"sojourn_target": 0.1},
                        telemetry={"sample_interval": 0.1}),),
        faults=(FaultAxis("f", {"loss": 0.05}),),
        scales=(ScaleAxis("big", n_servers=32, n_requests=5_000),),
        cluster_params={"request_timeout": 0.3},
        config_overrides={"n_clients": 4},
        seed=7,
    )
    (cell,) = spec.expand()
    cfg = cell.config
    assert cfg.policy == "polling" and cfg.policy_params == {"poll_size": 3}
    assert cfg.workload == "poisson_deterministic"
    assert cfg.load == 0.6 and cfg.seed == 7
    assert cfg.n_servers == 32 and cfg.n_requests == 5_000
    assert cfg.reliability_params == {"hedge_quantile": 0.9}
    assert cfg.overload_params == {"sojourn_target": 0.1}
    assert cfg.telemetry == {"sample_interval": 0.1}
    assert cfg.chaos_params == {"loss": 0.05}
    assert cfg.cluster_params == {"request_timeout": 0.3}
    assert cfg.n_clients == 4


def test_cells_get_fresh_dict_copies():
    shared = {"loss": 0.1}
    spec = ScenarioSpec(
        faults=(FaultAxis("a", shared), FaultAxis("b", shared)),
        n_requests=100,
        label_format="{scenario} {fault}",
    )
    cells = spec.expand()
    assert cells[0].config.chaos_params is not cells[1].config.chaos_params
    assert cells[0].config.chaos_params is not shared


def test_labels_collapse_empty_placeholders():
    spec = ScenarioSpec(name="tidy", n_requests=100)
    (cell,) = spec.expand()
    # default format references mode/fault/scale whose labels are empty
    assert "  " not in cell.config.label
    assert cell.config.label == "tidy poisson_exp random L=0.9"


def test_identical_configs_rejected_with_label_format_hint():
    spec = ScenarioSpec(
        modes=(ModeAxis("m1"), ModeAxis("m2")),  # same knobs, labels unused
        n_requests=100,
        label_format="{scenario} {policy}",
    )
    with pytest.raises(ScenarioError, match="label_format"):
        spec.expand()


def test_expansion_is_deterministic_and_cache_key_stable():
    spec = composed_spec(n_requests=200, quick=True)
    first = [config_key(c.config) for c in spec.expand()]
    second = [config_key(c.config) for c in spec.expand()]
    assert first == second
    assert len(set(first)) == len(first)  # distinct cells never collide


# ----------------------------------------------------------------------
# validation names the offending axis
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs,axis,fragment",
    [
        (dict(policies=(PolicyAxis("x", "nope"),)), "policies", "unknown policy"),
        (dict(policies=(PolicyAxis("x", "polling", {"bogus": 1}),)),
         "policies", "bad params"),
        (dict(workloads=(WorkloadAxis("w", "nope"),)), "workloads",
         "unknown workload"),
        (dict(modes=(ModeAxis("m", telemetry={"bogus": True}),)), "modes",
         "telemetry"),
        (dict(modes=(ModeAxis("m", reliability={"bogus": 1}),)), "modes",
         "reliability"),
        (dict(faults=(FaultAxis("f", {"bogus": 1}),)), "faults", "chaos"),
        (dict(cluster_params={"bogus": 1}), "cluster_params", "cluster"),
        (dict(config_overrides={"policy": "random"}), "config_overrides",
         "override"),
        (dict(loads=()), "loads", "empty"),
        (dict(loads=(0.0,)), "loads", "> 0"),
        (dict(loads=(0.5, 0.5)), "loads", "duplicate"),
        (dict(policies=()), "policies", "empty"),
        (dict(modes=(ModeAxis("m"), ModeAxis("m"))), "modes", "duplicate"),
        (dict(engine="quantum"), "engine", "one of"),
        (dict(scales=(ScaleAxis("s", n_servers=0),)), "scales", "n_servers"),
        (dict(label_format="{bogus}"), "label_format", "bad format"),
        # server speeds: checked by the config against every scale, at
        # validate time (a wrong length or factor used to crash the run)
        (dict(config_overrides={"server_speeds": (1.0, 2.0)}),
         "config_overrides", "n_servers is 16"),
        (dict(n_servers=4, config_overrides={"server_speeds": (1.0, 1.0, 1.0, -2.0)}),
         "config_overrides", "> 0"),
        (dict(n_servers=4, config_overrides={"server_speeds": ("x",) * 4}),
         "config_overrides", "not supported"),
        (dict(n_servers=4, scales=(ScaleAxis("s4"), ScaleAxis("s8", n_servers=8)),
              config_overrides={"server_speeds": (1.0,) * 4}),
         "config_overrides", "n_servers is 8"),
        # the length is held to the scale's n_servers (4), not the spec's 16
        # (its own id: the regex fragment makes a long, escaped default one)
        pytest.param(dict(scales=(ScaleAxis("s", n_servers=4),),
                          config_overrides={"server_speeds": (1.0, 2.0)}),
                     "config_overrides", r"n_servers is 4 \(one factor per server\)",
                     id="kwargs20-per-scale"),
        (dict(modes=(ModeAxis("m", dispatcher={"bogus": 1}),)), "modes",
         "dispatcher"),
        (dict(modes=(ModeAxis("m", autoscaler={"bogus": 1}),)), "modes",
         "autoscaler"),
        (dict(config_overrides={"model": "prototype",
                                "overhead_params": {"bogus": 1}}),
         "config_overrides", "unknown overhead_params"),
        (dict(config_overrides={"overhead_params": {"poll_cpu_cost": 1e-4}}),
         "config_overrides", "model='prototype' only"),
        # an attribute lookup on a placeholder was an AttributeError
        (dict(label_format="{load.x}"), "label_format", "bad format"),
    ],
)
def test_validation_errors_name_the_axis(kwargs, axis, fragment):
    with pytest.raises(ScenarioError, match=fragment) as err:
        ScenarioSpec(n_requests=100, **kwargs).expand()
    assert err.value.axis == axis
    assert f"axis {axis!r}" in str(err.value)


def test_fast_engine_rejects_subsystem_modes_naming_the_axis():
    base = dict(engine="fast", n_requests=100)
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(faults=(FaultAxis("f", {"loss": 0.1}),), **base).expand()
    assert err.value.axis == "faults"
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(
            modes=(ModeAxis("m", reliability={"hedge_quantile": 0.9}),), **base
        ).expand()
    assert err.value.axis == "modes"
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(policies=(PolicyAxis("jiq", "jiq"),), **base).expand()
    assert err.value.axis == "policies"
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(
            modes=(ModeAxis("m", dispatcher={"count": 2}),), **base
        ).expand()
    assert err.value.axis == "modes"
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(
            config_overrides={"server_speeds": (1.0, 2.0) * 8}, **base
        ).expand()
    assert err.value.axis == "config_overrides"
    # a plain fast-compatible grid is fine
    assert len(ScenarioSpec(n_requests=100, engine="fast").expand()) == 1


# ----------------------------------------------------------------------
# declarative construction
# ----------------------------------------------------------------------

def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        spec_from_dict({"name": "x", "polices": []})  # typo'd axis
    # the speeds axis is gone: heterogeneity is config_overrides.server_speeds
    with pytest.raises(ScenarioError, match=r"unknown key\(s\): \['speeds'\]"):
        spec_from_dict({"speeds": [{"label": "skew", "speeds": [2, 1]}]})


@pytest.mark.parametrize(
    "data,axis,fragment",
    [
        ({"n_requests": "200"}, "n_requests", "must be int, got '200'"),
        ({"label_format": 1}, "label_format", "must be str, got 1"),
        ({"n_servers": "x", "faults": [{"intensity": 1.0}]}, "n_servers", "must be int"),
        ({"seed": True}, "seed", "must be int, got True"),
        ({"faults": 3}, "faults", "must be list or tuple"),
        ({"config_overrides": []}, "config_overrides", "must be dict"),
        ({"policies": [{"label": 1, "policy": "random"}]}, "policies",
         "label must be str, got 1"),
        ({"scales": [{"label": "s", "n_servers": "4"}]}, "scales",
         "n_servers must be int, got '4'"),
        ({"faults": [{"intensity": "x"}]}, "spec", "could not convert"),
        ({"scales": [{"label": "s", "n_clients": 2.0}]}, "scales",
         "n_clients must be int, got 2.0"),
        ({"scales": [{"label": "s", "n_clients": 0}]}, "scales",
         "n_clients must be >= 1, got 0"),
    ],
)
def test_spec_from_dict_type_errors_name_the_field(data, axis, fragment):
    """JSON puts any type anywhere; these used to be a TypeError,
    AttributeError or bare ValueError from deep inside validate()."""
    with pytest.raises(ScenarioError, match=fragment) as err:
        spec_from_dict(data).expand()
    assert err.value.axis == axis


def test_spec_from_dict_intensity_shorthand_builds_chaos_knobs():
    from repro.experiments.chaos import chaos_params_for

    spec = spec_from_dict(
        {"name": "f", "n_servers": 8, "n_requests": 100,
         "faults": [{"intensity": 0.0}, {"intensity": 1.0}]}
    )
    assert spec.faults[0].chaos == {"loss": 0.0}
    assert spec.faults[1].chaos == chaos_params_for(1.0, 8)
    assert [f.label for f in spec.faults] == ["I=0", "I=1"]
    assert spec.faults[1].value == 1.0


def test_spec_from_dict_axis_entries_as_dicts():
    spec = spec_from_dict(
        {
            "name": "d",
            "n_requests": 100,
            "policies": [
                {"label": "rnd", "policy": "random"},
                {"label": "p3", "policy": "polling",
                 "params": {"poll_size": 3}},
            ],
            "loads": [0.5, 0.9],
        }
    )
    assert len(spec.expand()) == 4


def test_load_spec_reads_json_only(tmp_path):
    data = {
        "name": "file",
        "n_requests": 120,
        "loads": [0.5, 0.8],
        "policies": [{"label": "rnd", "policy": "random"}],
    }
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(data))
    assert load_spec(json_path) == spec_from_dict(data)
    yaml_path = tmp_path / "s.yaml"
    yaml_path.write_text("name: file\n")
    with pytest.raises(ScenarioError, match="expected .json"):
        load_spec(yaml_path)


def test_the_example_spec_file_expands_with_its_replay_file_cells():
    spec = load_spec(ROOT / "examples" / "grid.json")
    cells = spec.expand()
    replayed = [c for c in cells if c.config.workload == "replay_file"]
    assert len(cells) == 16 and len(replayed) == 8
    assert replayed[0].config.workload_params["path"] == "examples/grid-trace.csv"


@pytest.mark.parametrize(
    "literal,refusal",
    [
        ("NaN", "is not strict JSON"),
        ("Infinity", "is not strict JSON"),
        ("-Infinity", "is not strict JSON"),
        ("1e999", "is not a finite number"),
    ],
)
def test_a_non_finite_literal_in_a_spec_file_is_refused(tmp_path, literal, refusal):
    """``"loads": [Infinity]`` used to load, validate and expand to a cell."""
    path = tmp_path / "s.json"
    path.write_text(f'{{"name": "f", "loads": [{literal}]}}')
    with pytest.raises(ScenarioError, match=f"invalid JSON: {literal} {refusal}"):
        load_spec(path)
    with pytest.raises(ScenarioError, match="load must be finite and > 0"):
        spec_from_dict({"name": "f", "loads": [float(literal.lower())]}).validate()


@pytest.mark.parametrize(
    "intensity", [math.nan, math.inf, -math.inf, 13.0, 1.7976931348623157e308]
)
def test_a_non_finite_or_oversized_intensity_is_refused(intensity):
    """``{"intensity": Infinity}`` used to raise OverflowError from the chaos scaling."""
    with pytest.raises(ScenarioError, match="is not finite or scales loss past 1") as err:
        spec_from_dict({"name": "f", "faults": [{"intensity": intensity}]})
    assert err.value.axis == "spec"


@pytest.mark.parametrize(
    "chaos, refusal",
    [
        ({"loss": 1.5}, "loss must be in"),
        ({"stragglers": math.inf}, "stragglers must be an int"),
        ({"jitter_mean": -1.0}, "jitter_mean must be finite"),
        ({"straggle_factor": math.inf}, "straggle_factor must be finite"),
    ],
)
def test_an_explicit_chaos_knob_no_run_can_use_is_refused(chaos, refusal):
    """Each used to expand to a cell that failed only when it ran."""
    spec = spec_from_dict({"name": "f", "faults": [{"label": "a", "chaos": chaos}]})
    with pytest.raises(ScenarioError, match=refusal) as err:
        spec.expand()
    assert (err.value.axis, err.value.entry) == ("faults", "a")


def test_load_spec_bad_suffix_and_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="suffix"):
        load_spec(tmp_path / "spec.toml")
    with pytest.raises(ScenarioError, match="cannot read"):
        load_spec(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# campaign specs mirror the legacy grids
# ----------------------------------------------------------------------

def test_chaos_spec_single_mode_labels_omit_the_mode():
    cells = chaos_scenario_spec(n_requests=100).expand()
    assert cells[0].config.label == "chaos random I=0"
    assert all("naive" not in c.config.label for c in cells)


def test_chaos_spec_multi_mode_labels_append_the_mode():
    cells = chaos_scenario_spec(
        n_requests=100, reliability_modes=NAIVE_VS_HARDENED
    ).expand()
    assert cells[0].config.label == "chaos random I=0 naive"
    assert cells[-1].config.label.endswith("hardened")


def test_overload_spec_labels_and_zero_fault_chaos():
    cells = overload_scenario_spec(n_requests=100).expand()
    assert cells[0].config.label == "overload random L=0.8x static"
    assert all(c.config.chaos_params == {"loss": 0.0} for c in cells)


def test_composed_spec_includes_replay_scales_and_modes():
    spec = composed_spec(n_requests=400, quick=True)
    assert any(w.workload == "replay_bursty" for w in spec.workloads)
    assert len(spec.scales) >= 2 and len(spec.modes) == 2
    cells = spec.expand()
    assert len(cells) == 32
    assert any("replay-bursty" in c.config.label for c in cells)


def test_composed_spec_full_grid_includes_modern_policies():
    spec = composed_spec(n_requests=400)
    names = {p.policy for p in spec.policies}
    assert {"jiq", "least_connections"} <= names
    assert len(spec.expand()) == 120


# ----------------------------------------------------------------------
# heterogeneous server speeds
# ----------------------------------------------------------------------

def test_server_speeds_override_reaches_every_cell():
    grid = dict(loads=(0.5, 0.9), n_requests=100, n_servers=4)
    skewed = ScenarioSpec(config_overrides={"server_speeds": (2.0, 1.0, 1.0, 0.5)}, **grid)
    cells = skewed.expand()
    assert [c.config.server_speeds for c in cells] == [(2.0, 1.0, 1.0, 0.5)] * 2
    # heterogeneous cells never collide with homogeneous ones in cache
    uniform = ScenarioSpec(**grid).expand()
    assert {config_key(c.config) for c in cells}.isdisjoint(
        config_key(c.config) for c in uniform
    )


def test_scale_client_count_reaches_every_cell_over_the_overrides():
    spec = spec_from_dict({
        "n_requests": 100,
        "config_overrides": {"n_clients": 3},
        "scales": [{"label": "c2", "n_clients": 2}, {"label": "default"}],
    })
    assert [c.config.n_clients for c in spec.expand()] == [2, 3]


def test_mode_axis_dispatcher_and_autoscaler_reach_config():
    spec = ScenarioSpec(
        modes=(
            ModeAxis("plain"),
            ModeAxis(
                "tiered",
                dispatcher={"count": 2, "assignment": "failover"},
                autoscaler={"interval": 0.1},
            ),
        ),
        n_requests=100,
        cluster_params={"availability": True},
    )
    plain, tiered = [c.config for c in spec.expand()]
    assert plain.dispatcher_params == {} and plain.autoscaler_params == {}
    assert tiered.dispatcher_params == {"count": 2, "assignment": "failover"}
    assert tiered.autoscaler_params == {"interval": 0.1}
    assert config_key(plain) != config_key(tiered)


# ----------------------------------------------------------------------
# report assembly (no simulation: fabricate results)
# ----------------------------------------------------------------------

def _fake_result(config, mean=0.05, failed=0):
    from repro.experiments.runner import SimulationResult

    return SimulationResult(
        config=config,
        mean_response_time=mean,
        p50_response_time=mean,
        p90_response_time=mean * 1.5,
        p99_response_time=mean * 3,
        p95_response_time=mean * 2,
        mean_poll_time=0.0,
        n_measured=config.n_requests,
        n_failed=failed,
        nominal_rho=0.5,
        wall_seconds=0.01,
        events_executed=100,
    )


def test_report_drops_degenerate_axis_columns_and_compares_modes():
    spec = ScenarioSpec(
        name="r",
        modes=(ModeAxis("naive"), ModeAxis("hard", reliability={"hedge_quantile": 0.9})),
        n_requests=100,
        label_format="{scenario} {policy} {mode}",
    )
    cells = spec.expand()
    results = [
        _fake_result(c.config, mean=0.05 if c.mode == "naive" else 0.03)
        for c in cells
    ]
    report = ScenarioReport(spec=spec, cells=cells, results=results)
    assert "mode" in report.table.columns
    assert "fault" not in report.table.columns  # degenerate unlabeled axis
    assert "scale" not in report.table.columns
    assert "load" not in report.table.columns  # single load, not in label
    rendered = report.render()
    assert "2 cells" in rendered
    lines = report.mode_comparison()
    assert len(lines) == 1 and "hard vs naive" in lines[0]


def test_report_rejects_mismatched_lengths():
    spec = ScenarioSpec(n_requests=100)
    cells = spec.expand()
    with pytest.raises(ValueError, match="cells but"):
        ScenarioReport(spec=spec, cells=cells, results=[])


def test_layout_base_axis_hidden_base_rows_and_row_order():
    """A figure's table: every cell over the first policy's cell, base
    rows hidden, rows by load then policy (the spec expands policy
    before load)."""
    layout = ReportLayout(
        columns=(
            ("load", lambda cell, result, base: cell.load),
            ("policy", lambda cell, result, base: cell.policy),
            ("ratio", lambda cell, result, base:
                result.mean_response_time / base.mean_response_time),
        ),
        base_axis="policy",
        show_base_rows=False,
        row_order=("load", "policy"),
    )
    spec = ScenarioSpec(
        policies=(PolicyAxis("base", "random"), PolicyAxis("a", "jiq"),
                  PolicyAxis("b", "round_robin")),
        loads=(0.9, 0.5),
        n_requests=100,
        layout=layout,
    )
    cells = spec.expand()
    means = {"base": 0.1, "a": 0.2, "b": 0.4}
    results = [_fake_result(c.config, mean=means[c.policy] * c.load) for c in cells]
    report = ScenarioReport(spec=spec, cells=cells, results=results)
    assert [(r["load"], r["policy"]) for r in report.table.rows] == [
        (0.9, "a"), (0.9, "b"), (0.5, "a"), (0.5, "b"),
    ]
    assert [r["ratio"] for r in report.table.rows] == pytest.approx([2, 4, 2, 4])
    assert [c.policy for c in report.row_cells] == ["a", "b", "a", "b"]


def test_layout_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match="layout names axis 'workloads'"):
        ReportLayout(row_order=("workloads",))
    with pytest.raises(ValueError, match="layout names axis 'x'"):
        ReportLayout(base_axis="x")

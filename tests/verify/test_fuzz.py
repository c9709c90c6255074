"""Fault-schedule fuzzer: deterministic sampling, validation, shrinking.

The fuzzer's guarantees are structural: a spec is a pure function of
``(seed, case)``; malformed specs are rejected with named problems
before any simulation runs; and the shrinker reduces a failing schedule
to a minimal reproducer while preserving the failure class. All three
are testable without finding a real bug — the shrinker test injects a
synthetic ``run_fn`` whose failure condition is known exactly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify import fuzz


def test_sample_case_is_deterministic():
    a = fuzz.sample_case(0, 7)
    b = fuzz.sample_case(0, 7)
    assert a == b
    assert fuzz.sample_case(0, 8) != a
    assert fuzz.sample_case(1, 7) != a


def test_sample_case_json_round_trips_exactly():
    spec = fuzz.sample_case(3, 11)
    assert json.loads(json.dumps(spec)) == spec


def test_sampled_specs_validate():
    for case in range(30):
        spec = fuzz.sample_case(0, case)
        assert fuzz.validate_spec(spec) == [], (case, fuzz.validate_spec(spec))


def test_sampled_specs_exclude_manager_policy():
    """The manager policy's count drift under timeout retries is a known
    exclusion (see fuzz.py) — it must never enter the sampled pool."""
    policies = {
        fuzz.sample_case(0, case)["config"].get("policy") for case in range(60)
    }
    assert "manager" not in policies
    assert len(policies) >= 3  # the pool is actually being explored


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda s: s.update(schema=99), "schema"),
        (lambda s: s.update(config="nope"), "config"),
        (lambda s: s["config"].update(engine="heap"), "engine"),
        (lambda s: s["config"].update(verify_params={"enabled": True}), "verify_params"),
        (lambda s: s.update(check_interval=0), "check_interval"),
        (lambda s: s["schedule"].append({"kind": "meteor", "at_frac": 0.5}), "kind"),
        (lambda s: s["schedule"].append({"kind": "crash", "at_frac": 2.0, "node": 0}), "at_frac"),
        (lambda s: s["schedule"].append({"kind": "crash", "at_frac": 0.5}), "node"),
        (lambda s: s["config"].update(chaos_params={"bogus_knob": 1}), "config rejected"),
    ],
)
def test_validate_spec_names_the_problem(mutate, expected):
    spec = fuzz.sample_case(0, 0)
    mutate(spec)
    problems = fuzz.validate_spec(spec)
    assert problems, f"mutation not caught ({expected})"
    assert any(expected in p for p in problems), problems


def test_validate_spec_reports_what_used_to_crash_or_pass():
    """Regressions: an unhashable kind raised TypeError; ``true`` passed
    as an int or a fraction; a policy param the policy rejects validated
    clean and then replayed as ``build failed: TypeError``."""
    assert fuzz.validate_spec(
        {"schema": 1, "config": {}, "schedule": [{"kind": [1], "at_frac": 0.1}]}
    ) == [
        "schedule[0].kind must be one of ['crash', 'dispatcher_crash', "
        "'dispatcher_recover', 'partition', 'recover', 'straggle'], got [1]"
    ]
    spec = fuzz.sample_case(0, 0)
    spec.update(check_interval=True, schema=True)
    spec["schedule"] = [{"kind": "crash", "node": True, "at_frac": True}]
    problems = " | ".join(fuzz.validate_spec(spec))
    for field in ("schema", "check_interval", "node", "at_frac"):
        assert f"{field} must be" in problems
    unbuildable = {"policy": "polling", "policy_params": {"poll_size": "x"}}
    spec = {"schema": 1, "config": unbuildable}
    assert fuzz.run_spec(spec).message.startswith("build failed: TypeError")
    (problem,) = fuzz.validate_spec(spec)
    assert problem.startswith("config.policy 'polling' cannot be built: TypeError")
    (problem,) = fuzz.validate_spec({"schema": 1, "config": {"workload": "nosuch"}})
    assert problem.startswith("config.workload 'nosuch' cannot be built")


_JUNK_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**6),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["crash", "straggle", "polling", "random", "poisson_exp", "heap"]),
)
_JUNK_KEYS = st.sampled_from([
    "schema", "config", "check_interval", "schedule", "kind", "at_frac", "node",
    "index", "servers", "duration_frac", "factor", "policy", "policy_params",
    "poll_size", "workload", "workload_params", "n_servers", "n_requests", "load",
    "cluster_params", "chaos_params", "server_speeds", "engine", "bogus",
])
_JUNK = st.recursive(
    _JUNK_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_JUNK_KEYS, inner, max_size=4)
    ),
    max_leaves=8,
)


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


#: a valid reproducer with every field populated, to be broken a path at a time
_VALID = fuzz.sample_case(0, 74)


@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(list(_paths(_VALID))), _JUNK), min_size=1, max_size=2
    ),
    scratch=_JUNK,
)
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_validate_spec_over_junk_returns_problems(mutations, scratch):
    """A reproducer is outside input: ``validate_spec`` answers with a
    list of problem strings and never raises."""
    broken = json.loads(json.dumps(_VALID))
    for path, junk in mutations:
        node = broken
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = junk
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced the container this one is in
    for spec in (broken, scratch):
        problems = fuzz.validate_spec(spec)
        assert isinstance(problems, list)
        assert all(isinstance(problem, str) for problem in problems)


def test_load_spec_raises_on_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1}')
    with pytest.raises(ValueError, match="config"):
        fuzz.load_spec(path)
    assert fuzz.validate_spec_file(path)
    assert fuzz.validate_spec_file(tmp_path / "missing.json")


def test_save_load_round_trip(tmp_path):
    spec = fuzz.sample_case(0, 2)
    path = fuzz.save_spec(spec, tmp_path / "spec.json")
    assert fuzz.load_spec(path) == spec


def test_run_spec_is_deterministic():
    spec = fuzz.sample_case(0, 1)
    spec["config"]["n_requests"] = 80
    first = fuzz.run_spec(spec)
    second = fuzz.run_spec(spec)
    assert first == second
    assert first.status == "ok", first


@pytest.mark.parametrize(
    "field,key",
    [
        ("message_counts", "poll"),
        ("policy_counters", "polls_sent"),
        ("chaos_counters", "messages_lost"),
    ],
)
def test_a_divergence_only_in_counters_is_caught(monkeypatch, field, key):
    """The per-request arrays agree across engines; one counter of the
    calendar run does not. The run digest is part of the fingerprint,
    so the fuzzer reports a divergence."""
    import dataclasses

    from repro.experiments import runner

    summarize = runner._summarize_run

    def skewed(config, *args):
        result = summarize(config, *args)
        if config.engine != "calendar":
            return result
        counters = getattr(result, field)
        counters = {**counters, key: counters.get(key, 0) + 1}
        return dataclasses.replace(result, **{field: counters})

    monkeypatch.setattr(runner, "_summarize_run", skewed)
    spec = fuzz.sample_case(0, 1)
    spec["config"]["n_requests"] = 80
    outcome = fuzz.run_spec(spec)
    assert outcome.status == "divergence", outcome
    assert "run digest" in outcome.message


def test_outcome_signature_extracts_category():
    outcome = fuzz.CaseOutcome(
        status="violation",
        message="[t=1.000000000] conservation: request 5 arrived twice",
        engine="heap",
    )
    assert fuzz.outcome_signature(outcome) == ("violation", "conservation")
    assert fuzz.outcome_signature(fuzz.CaseOutcome(status="ok")) == ("ok",)


def test_outcome_signature_keeps_the_error_type_and_its_phase():
    def signature(message):
        return fuzz.outcome_signature(fuzz.CaseOutcome("error", message, "heap"))

    run = signature("NoCandidatesError: empty candidate set")
    assert run == ("error", "run", "NoCandidatesError")
    assert signature("KeyError: 3") != run
    assert signature("build failed: ValueError: initial_servers (4) outside [2, 2]") == (
        "error", "build", "ValueError")
    assert signature("build failed: NoCandidatesError: x") != run


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------


def _synthetic_spec(n_events=24):
    """A hand-built spec whose 'violation' is fully under test control."""
    return {
        "schema": fuzz.SPEC_SCHEMA,
        "fuzz_seed": 0,
        "case": 0,
        "check_interval": 8,
        "config": {
            "policy": "random",
            "load": 1.0,
            "n_servers": 8,
            "n_requests": 400,
            "seed": 0,
            "cluster_params": {},
            "chaos_params": {"loss": 0.01},
            "overload_params": {"sojourn_target": 0.1},
        },
        "schedule": [
            {"kind": "crash", "at_frac": i / n_events, "node": i % 4}
            for i in range(n_events)
        ],
    }


def test_ddmin_finds_single_culprit():
    # fails iff item 13 is present — ddmin must isolate exactly it
    result = fuzz._ddmin(list(range(24)), lambda items: 13 in items)
    assert result == [13]


def test_shrinker_hits_25_percent_bound():
    """ISSUE acceptance: for a synthetic violation triggered by one
    specific schedule event, the shrunk schedule is <= 25% of the
    original length (here: 1 of 24 events survives)."""
    spec = _synthetic_spec(n_events=24)
    culprit = spec["schedule"][13]

    def run_fn(candidate):
        # the "violation" fires iff the culprit event survives AND the
        # overload subsystem is still configured (so phase 3 can only
        # drop the other optional dicts)
        triggered = any(e == culprit for e in candidate.get("schedule", []))
        if triggered and "overload_params" in candidate["config"]:
            return ("violation", "synthetic")
        return ("ok",)

    result = fuzz.shrink_spec(spec, run_fn=run_fn)
    assert result.original_events == 24
    assert result.final_events == 1
    assert result.final_events <= 0.25 * result.original_events
    assert result.spec["schedule"] == [culprit]
    # phases 2-4 shrank the rest of the spec too
    assert result.final_requests < result.original_requests
    assert result.spec["config"]["n_servers"] < 8
    assert "chaos_params" not in result.spec["config"]
    assert "overload_params" in result.spec["config"]
    assert result.steps > 0


def test_shrinker_preserves_failure_signature_not_any_failure():
    """A candidate that fails *differently* must not be accepted."""
    spec = _synthetic_spec(n_events=8)

    def run_fn(candidate):
        events = candidate.get("schedule", [])
        if not events:
            return ("violation", "different-category")
        return ("violation", "target") if len(events) >= 2 else ("ok",)

    result = fuzz.shrink_spec(spec, run_fn=run_fn, target=("violation", "target"))
    assert result.final_events == 2
    assert fuzz.outcome_signature  # signature helper stays importable


def test_shrinker_keeps_the_failure_it_was_given():
    """Halving the pool below the autoscaler's ``initial_servers`` turns a
    run error into a build failure: that candidate is neither the failure
    nor a valid spec, so the pool stops at 4."""
    spec = _synthetic_spec(n_events=0)
    spec["config"]["cluster_params"] = {"availability": True}
    spec["config"]["autoscaler_params"] = {"interval": 0.2, "initial_servers": 4}

    def run_fn(candidate):
        config = candidate["config"]
        if "autoscaler_params" not in config:
            return ("ok",)
        message = (
            "build failed: ValueError: initial_servers (4) outside [1, 2]"
            if config["n_servers"] < 4
            else "NoCandidatesError: empty candidate set"
        )
        return fuzz.outcome_signature(fuzz.CaseOutcome("error", message, "heap"))

    result = fuzz.shrink_spec(spec, run_fn=run_fn)
    assert result.spec["config"]["n_servers"] == 4
    assert fuzz.validate_spec(result.spec) == []

    # a run_fn blind to the build still never yields an invalid spec
    result = fuzz.shrink_spec(
        spec, run_fn=lambda c: ("error",) if "autoscaler_params" in c["config"] else ("ok",)
    )
    assert result.spec["config"]["n_servers"] == 4
    assert fuzz.validate_spec(result.spec) == []


def test_fuzz_campaign_smoke(tmp_path):
    report = fuzz.fuzz_campaign(seed=0, budget=3, out_dir=tmp_path)
    assert report.clean, report.render()
    assert report.n_ok == 3
    assert "3 clean" in report.render()
    assert not list(tmp_path.glob("*.json"))  # no findings -> no files

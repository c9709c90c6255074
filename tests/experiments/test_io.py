"""Tests for result persistence."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.io import load_results, save_results
from repro.experiments.runner import SimulationResult


@pytest.fixture(scope="module")
def results():
    configs = [
        SimulationConfig(policy="random", workload="poisson_exp", load=0.6,
                         n_servers=2, n_requests=200, seed=s)
        for s in (1, 2)
    ]
    return [run_simulation(c) for c in configs]


def test_roundtrip(results, tmp_path):
    path = tmp_path / "results.json"
    save_results(results, path)
    loaded = load_results(path)
    assert len(loaded) == 2
    for original, restored in zip(results, loaded):
        assert restored == original  # frozen dataclasses compare by value


def test_json_is_valid_and_versioned(results, tmp_path):
    path = tmp_path / "results.json"
    save_results(results, path)
    document = json.loads(path.read_text())
    assert document["schema_version"] == 1
    assert "library_version" in document
    assert document["results"][0]["config"]["policy"] == "random"


def test_newer_schema_rejected_with_clear_error(tmp_path):
    """An archive from a future library version must fail loudly, not
    silently parse into garbage."""
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"schema_version": 99, "results": []}))
    with pytest.raises(ValueError, match="newer than this library"):
        load_results(path)


def test_older_schema_rejected(tmp_path):
    path = tmp_path / "ancient.json"
    path.write_text(json.dumps({"schema_version": 0, "results": []}))
    with pytest.raises(ValueError, match="predates"):
        load_results(path)


def test_missing_schema_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"results": []}))
    with pytest.raises(ValueError, match="missing or malformed"):
        load_results(path)


def test_save_then_load_results_equal(results, tmp_path):
    """Explicit round-trip contract: save -> load -> equal results."""
    path = tmp_path / "roundtrip.json"
    save_results(results, path)
    restored = load_results(path)
    assert restored == list(results)
    assert load_results(path) == restored  # loading is repeatable


def test_engine_field_roundtrip(tmp_path):
    config = SimulationConfig(policy="random", n_servers=2, n_requests=100,
                              load=0.4, engine="calendar")
    result = run_simulation(config)
    path = tmp_path / "engine.json"
    save_results([result], path)
    restored = load_results(path)[0]
    assert restored.config.engine == "calendar"
    assert restored == result


def test_server_speeds_tuple_roundtrip(tmp_path):
    config = SimulationConfig(policy="random", n_servers=2, n_requests=100,
                              server_speeds=(2.0, 1.0), load=0.4)
    result = run_simulation(config)
    path = tmp_path / "speeds.json"
    save_results([result], path)
    restored = load_results(path)[0]
    assert restored.config.server_speeds == (2.0, 1.0)
    assert restored == result


def test_empty_results(tmp_path):
    path = tmp_path / "empty.json"
    save_results([], path)
    assert load_results(path) == []


# ----------------------------------------------------------------------
# an archive is outside input: a wrong shape raises ValueError, nothing else
# ----------------------------------------------------------------------

def _record(**config):
    return {
        "config": {"policy": "random", "n_servers": 2, "n_requests": 100, **config},
        "mean_response_time": 0.01, "p50_response_time": 0.01,
        "p90_response_time": 0.02, "p99_response_time": 0.03,
        "mean_poll_time": 0.0, "n_measured": 90, "n_failed": 0,
        "nominal_rho": 0.5, "wall_seconds": 0.1, "events_executed": 400,
    }


#: JSON documents that are not results archives -> the part the
#: ``ValueError`` names
MALFORMED_ARCHIVES = {
    "top_level_list": ([_record()], "top level must be an object, got list"),
    "top_level_string": ("results", "top level must be an object, got str"),
    "results_not_a_list": (
        {"schema_version": 1, "results": 5}, "results must be a list of records, got int",
    ),
    "record_is_a_list": (
        {"schema_version": 1, "results": [[1, 2]]}, r"results\[0\] must be an object, got list",
    ),
    "config_is_a_list": (
        {"schema_version": 1, "results": [{**_record(), "config": [1]}]},
        r"results\[0\]\.config must be an object, got list",
    ),
    "schema_version_true": ({"schema_version": True, "results": []}, "schema_version True"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ARCHIVES))
def test_a_malformed_archive_raises_a_value_error_naming_file_and_part(name, tmp_path):
    document, part = MALFORMED_ARCHIVES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match=part) as caught:
        load_results(path)
    assert str(caught.value).startswith(f"{path}: ")


def test_a_record_that_builds_no_result_raises_a_value_error(tmp_path):
    path = tmp_path / "bad.json"
    for record, part in (
        ({**_record(), "bogus": 1}, r"results\[0\]: .*bogus"),
        (_record(load="x"), r"results\[0\]\.config: "),
        (_record(server_speeds=5), r"results\[0\]\.config: "),
        (
            {key: v for key, v in _record().items() if key != "config"},
            "config must be an object, got NoneType",
        ),
    ):
        path.write_text(json.dumps({"schema_version": 1, "results": [record]}))
        with pytest.raises(ValueError, match=part):
            load_results(path)


def _archive_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _archive_paths(child, prefix + (key,))


#: a valid one-record archive with server speeds and non-empty params, to
#: be broken one path at a time
_VALID_ARCHIVE = {
    "schema_version": 1,
    "library_version": "1.0.0",
    "results": [{
        **_record(server_speeds=[1.0, 2.0], policy_params={"poll_size": 2},
                  cluster_params={"max_retries": 1}),
        "server_counts": [40, 50],
        "message_counts": {"request": 90},
        "p95_response_time": 0.025,
    }],
}
_DELETE = object()
_JUNK = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 300), st.floats(allow_nan=True),
        st.text(max_size=4), st.sampled_from(["random", "prototype", "config", "results"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["config", "policy", "load", "n_servers",
                                         "server_speeds", "results", "bogus"]),
                        inner, max_size=3),
    ),
    max_leaves=6,
)


@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(list(_archive_paths(_VALID_ARCHIVE))),
                  st.one_of(_JUNK, st.just(_DELETE))),
        min_size=1, max_size=2,
    ),
)
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_json_shaped_junk_loads_and_round_trips_or_raises_value_error(
    mutations, tmp_path_factory
):
    """A wrong type, a missing key or nested junk anywhere in an archive:
    results that ``save_results`` round-trips, or ValueError — never an
    AttributeError / KeyError / TypeError / IndexError from inside."""
    document = copy.deepcopy(_VALID_ARCHIVE)
    for path, junk in mutations:
        if not path:
            document = junk if junk is not _DELETE else {}
            continue
        try:
            node = document
            for key in path[:-1]:
                node = node[key]
            if junk is _DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = junk
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced the container this one is in
    path = tmp_path_factory.getbasetemp() / "junk_archive.json"
    path.write_text(json.dumps(document))
    try:
        results = load_results(path)
    except ValueError:
        return
    assert all(isinstance(result, SimulationResult) for result in results)
    save_results(results, path)
    saved = path.read_text()
    save_results(load_results(path), path)
    assert path.read_text() == saved

"""Trace replay: generators, file round-trips, burst structure.

The loader must round-trip byte-exactly, replay must conserve arrival
counts and total work, the loader refuses every row it cannot replay
as a ``ValueError`` naming ``path:line``, and a
fixed-seed cluster run must show the burst structure *mattering* — a
load-oblivious policy pays for bursts in p95 where a load-aware one
mostly absorbs them.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import SimulationConfig, config_key
from repro.experiments.runner import run_simulation
from repro.workload import Trace, make_workload
from repro.workload.replay import (
    bursty_trace,
    file_trace,
    load_arrivals,
    replay_file_params,
    save_arrivals,
    trace_digest,
)


def _trace(timestamps, services):
    times = np.asarray(timestamps, dtype=np.float64)
    gaps = np.empty_like(times)
    gaps[0] = times[0]
    gaps[1:] = times[1:] - times[:-1]
    return Trace(
        name="t",
        interarrival=gaps,
        service=np.asarray(services, dtype=np.float64),
        metadata={"timestamps": times},
    )


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize("suffix", [".csv"])
def test_save_load_save_is_byte_identical(tmp_path, suffix):
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.exponential(0.013, 200))
    services = rng.lognormal(-3.2, 0.6, 200)
    first = tmp_path / f"trace{suffix}"
    save_arrivals(_trace(times, services), first)
    loaded = load_arrivals(first)
    assert len(loaded) == 200
    second = tmp_path / f"again{suffix}"
    save_arrivals(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_gaps_reconstruct_the_timestamps(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,service\n0.5,0.05\n0.5,0.06\n1.25,0.04\n"
    )
    trace = load_arrivals(path)
    # first gap is the first absolute timestamp; zero gaps (simultaneous
    # arrivals) are legal
    np.testing.assert_allclose(trace.interarrival, [0.5, 0.0, 0.75])
    np.testing.assert_allclose(np.cumsum(trace.interarrival), [0.5, 0.5, 1.25])


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("time,svc\n0.1,0.05\n", "expected header"),
        ("timestamp,service\n0.2,0.05\n0.1,0.05\n", "non-decreasing"),
        ("timestamp,service\n", "no arrival records"),
        ("timestamp,service\n0.1,0.05,9\n", "2 columns"),
    ],
)
def test_csv_loader_rejects_malformed_input(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        load_arrivals(path)


@pytest.mark.parametrize(
    "rows,line,fragment",
    [
        (["0.0,nan", "1.0,0.1"], 2, "non-finite"),
        (["nan,0.1", "1.0,0.1"], 2, "non-finite"),
        (["0.0,inf"], 2, "non-finite"),
        (["0.0,0.1", "1.0,-inf"], 3, "non-finite"),
        (["0.0,0.1", "x,0.1"], 3, "not a number"),
        (["0.0,0.1", "1.0,0"], 3, "non-positive service time"),
        (["-1.0,0.1"], 2, "non-negative and non-decreasing"),
        (["0.0,0.1", "2.0,0.1", "1.0,0.1"], 4, "non-decreasing"),
        (["0.0,0.1", "2e6,0.1"], 3, "mixed-epoch"),
    ],
)
def test_every_rejected_row_names_its_path_and_line(tmp_path, rows, line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["timestamp,service", *rows]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: .*{fragment}"):
        load_arrivals(path)


@pytest.mark.parametrize(
    "content",
    [b"timestamp,service\n0.0,0.1\n\xff\xfe,0.1\n", b"timestamp,service\n0.0," + b"1" * 200_000 + b"\n"],
    ids=["not-utf8", "field-over-the-csv-limit"],
)
def test_an_unreadable_row_is_a_value_error_naming_the_file(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:\\d+: unreadable row"):
        load_arrivals(path)


def test_a_nan_service_fails_the_replay_run_instead_of_reading_nan(tmp_path):
    """A single ``nan`` service used to load, and a 300-request run over
    it reported a nan mean with nothing measured and nothing failed."""
    rng = np.random.default_rng(0)
    times = np.cumsum(rng.exponential(0.05, 300))
    services = rng.exponential(0.05, 300)
    services[7] = np.nan
    path = tmp_path / "nan.csv"
    path.write_text("timestamp,service\n" + "".join(
        f"{t!r},{s!r}\n" for t, s in zip(times.tolist(), services.tolist())))
    config = SimulationConfig(workload="replay_file", workload_params={"path": str(path)},
                              n_requests=300, n_servers=4, load=0.5)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:9: non-finite"):
        run_simulation(config)


#: cells a junk row draws from: numbers, the float spellings Python
#: accepts beyond plain digits, non-numbers and header words
_CSV_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1_0", " 2", "0x1",
                     "timestamp", "service", "", "2e6"]),
)


@given(data=st.data())
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_junk_csv_loads_and_round_trips_or_raises_value_error(data, tmp_path_factory):
    """One row or cell of a valid trace file replaced by junk, or removed,
    or the header mangled: the loader returns a trace whose every value
    is finite and that save_arrivals writes back to a file loading to
    the same bits, or raises a ValueError naming ``path:line`` — never
    another exception from inside, and never a silently skipped row."""
    path = tmp_path_factory.mktemp("junk_csv") / "trace.csv"
    lines = ["timestamp,service", "0.0,0.05", "0.01,0.02", "0.025,0.07", "0.04,0.01"]
    index = data.draw(st.integers(0, len(lines) - 1))
    choice = data.draw(st.sampled_from(["delete", "cell", "row"]))
    if choice == "delete":
        del lines[index]
    elif choice == "cell":
        cells = lines[index].split(",")
        cells[data.draw(st.integers(0, 1))] = data.draw(_CSV_CELL)
        lines[index] = ",".join(cells)
    else:
        lines[index] = ",".join(data.draw(st.lists(_CSV_CELL, max_size=3)))
    path.write_text("\n".join(lines) + "\n")
    try:
        trace = load_arrivals(path)
    except ValueError as error:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(error)), error
        return
    times = trace.metadata["timestamps"]
    assert np.isfinite(times).all() and np.isfinite(trace.service).all()
    assert (trace.service > 0).all() and (np.diff(times) >= 0).all()
    assert len(trace) == sum(1 for line in lines[1:] if line)
    again = path.with_name("again.csv")
    save_arrivals(trace, again)
    reloaded = load_arrivals(again)
    np.testing.assert_array_equal(reloaded.metadata["timestamps"], times)
    np.testing.assert_array_equal(reloaded.service, trace.service)


def test_unknown_suffix_rejected(tmp_path):
    with pytest.raises(ValueError, match="suffix"):
        load_arrivals(tmp_path / "t.parquet")
    with pytest.raises(ValueError, match="suffix"):
        save_arrivals(_trace([0.1], [0.05]), tmp_path / "t.parquet")
    with pytest.raises(ValueError, match="suffix"):
        load_arrivals(tmp_path / "t.jsonl")


# ----------------------------------------------------------------------
# conservation property
# ----------------------------------------------------------------------

arrival_lists = st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-6, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


@given(records=arrival_lists)
@settings(max_examples=30, deadline=None)
def test_round_trip_conserves_counts_and_total_work(records, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("replay")
    gaps = [r[0] for r in records]
    services = [r[1] for r in records]
    times = np.cumsum(np.asarray(gaps, dtype=np.float64))
    original = _trace(times, services)
    path = tmp_path / "trace.csv"
    save_arrivals(original, path)
    loaded = load_arrivals(path)
    # conservation: every arrival survives, with its work, exactly
    assert len(loaded) == len(records)
    assert float(loaded.service.sum()) == float(original.service.sum())
    np.testing.assert_array_equal(loaded.service, original.service)
    np.testing.assert_array_equal(
        loaded.metadata["timestamps"], original.metadata["timestamps"]
    )


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    a = bursty_trace(np.random.default_rng(5), 500)
    b = bursty_trace(np.random.default_rng(5), 500)
    np.testing.assert_array_equal(a.interarrival, b.interarrival)
    np.testing.assert_array_equal(a.service, b.service)
    c = bursty_trace(np.random.default_rng(6), 500)
    assert not np.array_equal(a.interarrival, c.interarrival)


def test_bursty_trace_is_overdispersed_vs_poisson():
    gaps = bursty_trace(np.random.default_rng(0), 4000,
                        burst_ratio=20.0).interarrival
    cv2 = float(gaps.var() / gaps.mean() ** 2)
    assert cv2 > 2.0  # Poisson would be ~1


@pytest.mark.parametrize("build,kwargs,fragment", [
    # explicit ids: a row keeps its id when rows around it come or go
    pytest.param(bursty_trace, dict(burst_ratio=1.0), "burst_ratio",
                 id="bursty_trace-kwargs2-burst_ratio"),
    pytest.param(bursty_trace, dict(burst_fraction=1.5), "burst_fraction",
                 id="bursty_trace-kwargs3-burst_fraction"),
    pytest.param(bursty_trace, dict(cycle=-1.0), "cycle", id="bursty_trace-kwargs4-cycle"),
])
def test_generator_parameter_validation(build, kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        build(np.random.default_rng(0), 100, **kwargs)


# ----------------------------------------------------------------------
# replay_file: registry + cache-key awareness
# ----------------------------------------------------------------------

def test_file_trace_digest_pins_content(tmp_path):
    path = tmp_path / "t.csv"
    save_arrivals(_trace([0.1, 0.2], [0.05, 0.05]), path)
    params = replay_file_params(path)
    assert params["path"] == str(path)
    assert len(file_trace(path, digest=params["digest"])) == 2
    # editing the file must fail the pinned digest loudly
    save_arrivals(_trace([0.1, 0.3], [0.05, 0.05]), path)
    with pytest.raises(ValueError, match="digest"):
        file_trace(path, digest=params["digest"])


def test_replay_file_workload_tiles_to_request_count(tmp_path):
    path = tmp_path / "t.csv"
    save_arrivals(_trace([0.05, 0.1, 0.2], [0.05, 0.06, 0.04]), path)
    workload = make_workload("replay_file", **replay_file_params(path))
    gaps, services = workload.generate(np.random.default_rng(0), 10)
    assert gaps.shape == (10,) and services.shape == (10,)
    assert (services > 0).all()


def test_replay_file_content_changes_the_cache_key(tmp_path):
    path = tmp_path / "t.csv"
    save_arrivals(_trace([0.1, 0.2], [0.05, 0.05]), path)
    before = config_key(SimulationConfig(
        workload="replay_file", workload_params=replay_file_params(path),
        n_requests=100,
    ))
    save_arrivals(_trace([0.1, 0.2], [0.05, 0.09]), path)
    after = config_key(SimulationConfig(
        workload="replay_file", workload_params=replay_file_params(path),
        n_requests=100,
    ))
    assert before != after  # same path, new content -> cache miss


def test_replay_workloads_run_end_to_end():
    config = SimulationConfig(
        workload="replay_bursty", load=0.5, n_servers=4,
        n_requests=300, seed=0,
    )
    result = run_simulation(config)
    assert result.n_measured > 0 and result.n_failed == 0


# ----------------------------------------------------------------------
# burst structure matters (fixed seeds, deterministic)
# ----------------------------------------------------------------------

#: sustained bursts (6 s at 1.875x the mean rate over a 20 s cycle) at a
#: 0.4 base load: in-burst utilisation ~0.75 — a regime where random's
#: per-server M/M/1 queues blow up but a load-aware policy can still
#: route around the pile-up
_BURST = {"burst_ratio": 3.0, "burst_fraction": 0.3, "cycle": 20.0}
_P95_RATIO_BOUND = 1.25


def _p95(policy, policy_params, workload, workload_params, seed):
    config = SimulationConfig(
        policy=policy, policy_params=policy_params,
        workload=workload, workload_params=workload_params,
        load=0.4, n_servers=8, n_requests=8_000, seed=seed,
    )
    return run_simulation(config).p95_response_time


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_bursts_inflate_random_p95_but_not_broadcast(seed):
    """The satellite's headline behavior: identical burst schedules, and
    only the load-oblivious policy pays for them in the tail."""
    random_ratio = (
        _p95("random", {}, "replay_bursty", _BURST, seed)
        / _p95("random", {}, "poisson_exp", {}, seed)
    )
    broadcast = ("broadcast", {"mean_interval": 0.02})
    broadcast_ratio = (
        _p95(*broadcast, "replay_bursty", _BURST, seed)
        / _p95(*broadcast, "poisson_exp", {}, seed)
    )
    assert random_ratio > _P95_RATIO_BOUND, (
        f"seed {seed}: random should pay for bursts "
        f"(p95 ratio {random_ratio:.3f})"
    )
    assert broadcast_ratio < _P95_RATIO_BOUND, (
        f"seed {seed}: broadcast should absorb bursts "
        f"(p95 ratio {broadcast_ratio:.3f})"
    )
    assert broadcast_ratio < random_ratio

"""Epoch-normalization semantics for replay traces (live recordings).

A live recording carries wall-clock epoch timestamps (~1.7e9 s). Fed
raw into the loaders, the first interarrival gap would *be* the epoch
and the runner's mean-based load rescale would silently destroy the
trace's shape — so loaders refuse epoch input, ``save_arrivals``
normalizes it to t=0 exactly once, and already-normalized files keep
round-tripping byte-for-byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.workload.replay import (
    EPOCH_CUTOFF,
    _classify_epochs,
    live_trace,
    load_arrivals,
    save_arrivals,
)

EPOCH = 1.7e9
_REL_TIMES = [0.0, 0.01, 0.025, 0.05]
_SERVICES = [0.001, 0.002, 0.001, 0.003]


def _write_csv(path, times):
    lines = ["timestamp,service"]
    lines += [f"{float(t)!r},{float(s)!r}" for t, s in zip(times, _SERVICES)]
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# loaders refuse raw epoch / mixed-epoch input
# ----------------------------------------------------------------------
@pytest.mark.parametrize("writer,suffix", [(_write_csv, "csv")])
def test_loaders_refuse_raw_epoch_timestamps(tmp_path, writer, suffix):
    path = tmp_path / f"raw.{suffix}"
    writer(path, [EPOCH + t for t in _REL_TIMES])
    with pytest.raises(ValueError, match="save_arrivals"):
        load_arrivals(path)


@pytest.mark.parametrize("writer,suffix", [(_write_csv, "csv")])
def test_loaders_refuse_mixed_epoch_timestamps(tmp_path, writer, suffix):
    path = tmp_path / f"mixed.{suffix}"
    writer(path, [0.0, 0.01, EPOCH + 0.025, EPOCH + 0.05])
    with pytest.raises(ValueError, match="mixed-epoch"):
        load_arrivals(path)


def test_cutoff_boundary_is_exact():
    # Just below the cutoff loads fine; the cutoff itself is epoch.
    trace = live_trace([EPOCH_CUTOFF - 1.0, EPOCH_CUTOFF - 0.5], [0.001, 0.001])
    assert trace.interarrival[0] == EPOCH_CUTOFF - 1.0  # kept trace-relative
    epoch = live_trace([EPOCH_CUTOFF, EPOCH_CUTOFF + 0.5], [0.001, 0.001])
    assert epoch.interarrival[0] == 0.0  # normalized


# ----------------------------------------------------------------------
# live_trace: in-memory live recordings
# ----------------------------------------------------------------------
def test_live_trace_normalizes_gaps_but_keeps_raw_epochs():
    times = np.asarray(_REL_TIMES) + EPOCH
    trace = live_trace(times, _SERVICES, source="drive-run")
    # float64 resolution at epoch magnitude is ~2e-7 s; the subtraction
    # recovers relative times to that granularity.
    np.testing.assert_allclose(np.cumsum(trace.interarrival), _REL_TIMES,
                               atol=1e-6)
    np.testing.assert_array_equal(trace.metadata["timestamps"], times)


def test_live_trace_validation():
    with pytest.raises(ValueError, match="non-decreasing"):
        live_trace([EPOCH + 1.0, EPOCH], [0.001, 0.001])
    with pytest.raises(ValueError, match="equal-length"):
        live_trace([EPOCH], [0.001, 0.002])
    with pytest.raises(ValueError, match="equal-length"):
        live_trace([], [])
    with pytest.raises(ValueError, match="mixed-epoch"):
        live_trace([0.0, EPOCH], [0.001, 0.001])
    with pytest.raises(ValueError, match="negative"):
        live_trace([-1.0, 0.0], [0.001, 0.001])


@pytest.mark.parametrize("timestamps,services,message", [
    ([0.0, math.nan, 1.0], [0.1] * 3, r"timestamps\[1\] is not finite"),
    ([0.0, 1.0], [math.nan, 0.1], r"services\[0\] is not finite"),
    ([0.0, 1.0], [math.inf, 0.1], r"services\[0\] is not finite"),
    (["a"], [1], r"timestamps\[0\] is not a number: 'a'"),
    ([0.0, 1.0], [0.1, 0.0], r"services\[1\] must be > 0"),
])
def test_live_trace_refuses_what_the_csv_loader_refuses(timestamps, services, message):
    """Regression: a NaN timestamp became a NaN gap, a NaN or infinite
    service went into the trace, and a string escaped as numpy's bare
    "could not convert string to float"."""
    with pytest.raises(ValueError, match=rf"^drive-run: {message}"):
        live_trace(timestamps, services, source="drive-run")


#: what a junk cell draws from: numbers of every float class, integers
#: past float range, and values that are not numbers at all
_JUNK_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from([None, "a", "1.5", b"2", True, [1.0], [], {}, (0.1, 0.2), object()]),
)
_JUNK_COLUMN = st.one_of(
    st.lists(_JUNK_CELL, max_size=4),
    _JUNK_CELL,
    st.lists(st.lists(st.floats(0, 1), max_size=2), max_size=3),
)


@given(data=st.data())
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_junk_live_recordings_build_a_trace_or_raise_a_named_value_error(data):
    """A valid recording with one cell replaced by junk, or one column
    replaced whole, or a junk array handed to the epoch classifier: the
    result is a trace of finite, replayable values of the input's
    length (or a bool), or a ValueError that starts ``source:`` — never
    another exception from inside, never a silently defaulted field."""
    n = data.draw(st.integers(1, 4))
    base = data.draw(st.sampled_from([0.0, EPOCH]))
    columns = [
        [base + t for t in sorted(data.draw(st.lists(st.floats(0, 10), min_size=n, max_size=n)))],
        data.draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)),
    ]
    which = data.draw(st.integers(0, 1))
    if data.draw(st.booleans()):
        columns[which][data.draw(st.integers(0, n - 1))] = data.draw(_JUNK_CELL)
    else:
        columns[which] = data.draw(_JUNK_COLUMN)
    try:
        trace = live_trace(*columns, source="junk")
    except ValueError as error:
        assert str(error).startswith("junk: "), error
    else:
        stamps = trace.metadata["timestamps"]
        assert len(trace) == len(stamps) == len(columns[0]) == len(columns[1])
        assert np.isfinite(stamps).all() and np.isfinite(trace.interarrival).all()
        assert np.isfinite(trace.service).all() and (trace.service > 0).all()
        assert (np.diff(stamps) >= 0).all() and (trace.interarrival >= 0).all()

    times = data.draw(arrays(np.float64, st.sampled_from([(0,), (1,), (3,), (2, 2)]),
                             elements=st.floats(allow_nan=True, allow_infinity=True)))
    try:
        epoch = _classify_epochs(times, "junk")
    except ValueError as error:
        assert str(error).startswith("junk: "), error
    else:
        assert epoch is bool(times[0] >= EPOCH_CUTOFF)
        assert np.isfinite(times[[0, -1]]).all()


# ----------------------------------------------------------------------
# save path: normalize exactly once, then byte-exact round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("suffix", ["csv"])
def test_epoch_trace_saves_normalized_then_roundtrips_byte_exact(tmp_path, suffix):
    times = np.asarray(_REL_TIMES) + EPOCH
    trace = live_trace(times, _SERVICES, source="drive-run")
    first = tmp_path / f"first.{suffix}"
    save_arrivals(trace, first)
    loaded = load_arrivals(first)
    np.testing.assert_allclose(np.cumsum(loaded.interarrival), _REL_TIMES, atol=1e-6)
    # Loaded (already-normalized) trace re-saves byte-identically.
    second = tmp_path / f"second.{suffix}"
    save_arrivals(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("suffix", ["csv"])
def test_relative_trace_roundtrip_unchanged_by_the_epoch_guard(tmp_path, suffix):
    # Pre-existing (trace-relative) files are untouched by the new
    # normalization: load -> save reproduces repr-exact values.
    path = tmp_path / f"rel.{suffix}"
    _write_csv(path, _REL_TIMES)
    loaded = load_arrivals(path)
    out = tmp_path / f"out.{suffix}"
    save_arrivals(loaded, out)
    assert path.read_bytes() == out.read_bytes()

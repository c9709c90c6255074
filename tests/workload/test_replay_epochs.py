"""Epoch-normalization semantics for replay traces (live recordings).

A live recording carries wall-clock epoch timestamps (~1.7e9 s). Fed
raw into the loaders, the first interarrival gap would *be* the epoch
and the runner's mean-based load rescale would silently destroy the
trace's shape — so loaders refuse epoch input, ``save_arrivals``
normalizes it to t=0 exactly once, and already-normalized files keep
round-tripping byte-for-byte.
"""

import numpy as np
import pytest

from repro.workload.replay import (
    EPOCH_CUTOFF,
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

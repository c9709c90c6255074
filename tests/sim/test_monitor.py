"""Unit tests for measurement recorders."""

import numpy as np
import pytest

from repro.sim import GrowableArray, StepRecorder


def test_growable_append_and_view():
    arr = GrowableArray(initial_capacity=2)
    for i in range(10):
        arr.append(float(i))
    assert len(arr) == 10
    assert np.array_equal(arr.view(), np.arange(10.0))


def test_growable_view_is_readonly():
    arr = GrowableArray()
    arr.append(1.0)
    view = arr.view()
    with pytest.raises(ValueError):
        view[0] = 2.0


def test_growable_extend():
    arr = GrowableArray(initial_capacity=1)
    arr.extend(np.arange(5.0))
    arr.extend(np.arange(5.0, 12.0))
    assert np.array_equal(arr.view(), np.arange(12.0))


def test_growable_array_returns_copy():
    arr = GrowableArray()
    arr.append(1.0)
    copy = arr.array()
    copy[0] = 99.0
    assert arr.view()[0] == 1.0


def test_step_value_at_before_first_breakpoint():
    rec = StepRecorder(initial=5.0)
    rec.record(1.0, 10.0)
    values = rec.value_at(np.array([0.0, 0.999, 1.0, 2.0]))
    assert values.tolist() == [5.0, 5.0, 10.0, 10.0]


def test_step_right_continuity():
    rec = StepRecorder()
    rec.record(0.0, 1.0)
    rec.record(2.0, 3.0)
    assert rec.value_at(np.array([2.0]))[0] == 3.0
    assert rec.value_at(np.array([1.9999]))[0] == 1.0


def test_step_rejects_nonmonotone_times():
    rec = StepRecorder()
    rec.record(2.0, 1.0)
    with pytest.raises(ValueError):
        rec.record(1.0, 2.0)


def test_step_equal_times_allowed_last_wins():
    rec = StepRecorder()
    rec.record(1.0, 5.0)
    rec.record(1.0, 7.0)
    assert rec.value_at(np.array([1.0]))[0] == 7.0


def test_time_average_simple():
    rec = StepRecorder()
    rec.record(0.0, 1.0)
    rec.record(1.0, 3.0)
    # [0,1): 1, [1,2): 3 -> average over [0,2] is 2
    assert rec.time_average(0.0, 2.0) == pytest.approx(2.0)


def test_time_average_window_inside_segment():
    rec = StepRecorder()
    rec.record(0.0, 4.0)
    rec.record(10.0, 8.0)
    assert rec.time_average(2.0, 5.0) == pytest.approx(4.0)


def test_time_average_empty_recorder_uses_initial():
    rec = StepRecorder(initial=2.5)
    assert rec.time_average(0.0, 4.0) == 2.5


def test_time_average_invalid_window():
    rec = StepRecorder()
    with pytest.raises(ValueError):
        rec.time_average(3.0, 3.0)


def test_value_at_empty_recorder_returns_initial():
    # Regression: np.where evaluates both branches, so the fancy index
    # used to raise IndexError on a recorder with no breakpoints.
    rec = StepRecorder(initial=3.5)
    values = rec.value_at(np.array([0.0, 1.0, 100.0]))
    assert values.tolist() == [3.5, 3.5, 3.5]


def test_time_average_breakpoint_exactly_at_t0():
    rec = StepRecorder(initial=0.0)
    rec.record(1.0, 5.0)
    rec.record(2.0, 9.0)
    # Breakpoint at t0: the [1,2) segment value (5) is in force from t0.
    assert rec.time_average(1.0, 3.0) == pytest.approx(7.0)


def test_time_average_breakpoint_exactly_at_t1():
    rec = StepRecorder(initial=0.0)
    rec.record(1.0, 5.0)
    rec.record(3.0, 9.0)
    # A breakpoint at t1 contributes zero duration to [t0, t1].
    assert rec.time_average(1.0, 3.0) == pytest.approx(5.0)


def test_time_average_window_before_first_breakpoint():
    rec = StepRecorder(initial=2.0)
    rec.record(10.0, 7.0)
    assert rec.time_average(0.0, 4.0) == pytest.approx(2.0)


def test_time_average_matches_value_at_segments():
    # Property: the time average equals the duration-weighted dot
    # product of value_at sampled at segment midpoints (exact for step
    # functions — hypothesis version below explores random shapes).
    rec = StepRecorder(initial=1.0)
    for t, v in [(0.5, 2.0), (1.25, 0.0), (4.0, 6.0)]:
        rec.record(t, v)
    t0, t1 = 0.0, 5.0
    cuts = np.array([t0, 0.5, 1.25, 4.0, t1])
    mids = (cuts[:-1] + cuts[1:]) / 2
    expected = float(np.dot(rec.value_at(mids), np.diff(cuts)) / (t1 - t0))
    assert rec.time_average(t0, t1) == pytest.approx(expected)


def test_breakpoints_views():
    rec = StepRecorder()
    rec.record(1.0, 2.0)
    rec.record(3.0, 4.0)
    times, values = rec.breakpoints()
    assert times.tolist() == [1.0, 3.0]
    assert values.tolist() == [2.0, 4.0]

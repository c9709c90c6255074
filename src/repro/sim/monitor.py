"""NumPy-backed measurement recorders.

Per-request metrics can number in the millions per experiment, so
recorders append into amortized-doubling ``float64`` buffers rather than
Python lists, and summaries are vectorized reductions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowableArray", "StepRecorder", "step_occupancy"]


class GrowableArray:
    """An append-only float64 buffer with amortized-doubling growth."""

    __slots__ = ("_data", "_size")

    def __init__(self, initial_capacity: int = 1024):
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self._data = np.empty(initial_capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value: float) -> None:
        if self._size == self._data.shape[0]:
            self._grow(self._size * 2)
        self._data[self._size] = value
        self._size += 1

    def _grow(self, capacity: int) -> None:
        data = np.empty(capacity, dtype=np.float64)
        data[: self._size] = self._data[: self._size]
        self._data = data

    def view(self) -> np.ndarray:
        """A read-only *view* (no copy) of the recorded values."""
        out = self._data[: self._size]
        out.flags.writeable = False
        return out


class StepRecorder:
    """Records a right-continuous step function, e.g. a queue length.

    ``record(t, v)`` appends a breakpoint: the function takes value ``v``
    on ``[t, next_t)``. Queries are vectorized via ``searchsorted``.
    """

    __slots__ = ("_times", "_values", "initial")

    def __init__(self, initial: float = 0.0):
        self._times = GrowableArray()
        self._values = GrowableArray()
        self.initial = initial

    def record(self, time: float, value: float) -> None:
        if len(self._times) and time < self._times.view()[-1]:
            raise ValueError(
                f"non-monotone record time {time!r} < {self._times.view()[-1]!r}"
            )
        self._times.append(time)
        self._values.append(value)

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` views of the breakpoints."""
        return self._times.view(), self._values.view()

    def value_at(self, times: np.ndarray) -> np.ndarray:
        """Evaluate the step function at (an array of) query times."""
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        bp_t = self._times.view()
        bp_v = self._values.view()
        if bp_t.size == 0:
            # np.where evaluates both branches eagerly, so the fancy
            # index below would fail on an empty recorder even though
            # every query resolves to ``initial``.
            return np.full(times.shape, self.initial)
        idx = np.searchsorted(bp_t, times, side="right") - 1
        out = np.where(idx >= 0, bp_v[np.clip(idx, 0, None)], self.initial)
        return out


def step_occupancy(
    recorder: StepRecorder, t0: float, t1: float, minlength: int = 0
) -> np.ndarray:
    """Time-weighted histogram of a :class:`StepRecorder`'s integer
    values over ``[t0, t1]``.

    ``result[k]`` is the total time the step function spent at value
    ``k`` — for a server queue-length recorder, the un-normalized
    occupancy distribution compared against the fast path's
    (DESIGN.md §13 tier 2). Sum histograms across servers, then
    normalize.
    """
    if t1 <= t0:
        raise ValueError(f"empty interval [{t0}, {t1}]")
    bp_t, bp_v = recorder.breakpoints()
    if bp_t.size == 0:
        level = max(int(recorder.initial), 0)
        hist = np.zeros(max(minlength, level + 1))
        hist[level] = t1 - t0
        return hist
    start_idx = np.searchsorted(bp_t, t0, side="right") - 1
    initial = bp_v[start_idx] if start_idx >= 0 else recorder.initial
    inside = (bp_t > t0) & (bp_t < t1)
    times = np.concatenate(([t0], bp_t[inside], [t1]))
    values = np.concatenate(([initial], bp_v[inside]))
    durations = np.diff(times)
    levels = np.maximum(values.astype(np.int64), 0)
    return np.bincount(levels, weights=durations, minlength=minlength)

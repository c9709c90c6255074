"""Property-based invariants of the StepRecorder.

``time_average`` is an analytic integral over the recorded step
function; ``value_at`` is a pointwise evaluation of the same function.
For any breakpoints and any window, the integral must equal the
duration-weighted dot product of pointwise evaluations at segment
midpoints — exact for step functions, no discretization error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import StepRecorder
from tests.sim.test_monitor import time_average

# Breakpoint times on a coarse lattice keep the arithmetic exact enough
# for approx comparison while still exploring coincident times, windows
# landing exactly on breakpoints, and empty-window-segment shapes.
times_strategy = st.lists(
    st.integers(0, 400).map(lambda i: i / 4.0), min_size=0, max_size=20
)
values_strategy = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(
    times=times_strategy,
    values=st.lists(values_strategy, min_size=20, max_size=20),
    initial=values_strategy,
    window=st.tuples(st.integers(0, 400), st.integers(1, 100)),
)
def test_time_average_equals_midpoint_dot_product(times, values, initial, window):
    rec = StepRecorder(initial=initial)
    for t, v in zip(sorted(times), values):
        rec.record(t, v)
    t0 = window[0] / 4.0
    t1 = t0 + window[1] / 4.0

    cuts = np.unique(
        np.concatenate(([t0, t1], [t for t in sorted(times) if t0 < t < t1]))
    )
    mids = (cuts[:-1] + cuts[1:]) / 2
    expected = float(np.dot(rec.value_at(mids), np.diff(cuts)) / (t1 - t0))

    assert np.isclose(time_average(rec, t0, t1), expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    times=times_strategy,
    values=st.lists(values_strategy, min_size=20, max_size=20),
    initial=values_strategy,
    queries=st.lists(st.integers(-40, 440).map(lambda i: i / 4.0),
                     min_size=1, max_size=10),
)
def test_value_at_matches_scalar_scan(times, values, initial, queries):
    # Vectorized value_at agrees with a brute-force scan of breakpoints.
    rec = StepRecorder(initial=initial)
    pairs = list(zip(sorted(times), values))
    for t, v in pairs:
        rec.record(t, v)

    def scalar(q):
        best = initial
        for t, v in pairs:
            if t <= q:
                best = v
            else:
                break
        return best

    got = rec.value_at(np.array(queries))
    assert got.tolist() == [scalar(q) for q in queries]

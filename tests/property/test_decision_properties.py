"""Per-decision statistics against their whole-collection references.

The hot-path shortcuts claim *the same bits* as the code they replaced,
so each is held with ``==``: the hedge-delay window against
``np.quantile`` over an arrival-order ring, the numpy table argmin
against :func:`choose_min_with_ties` on the copied value list —
return value *and* the generator's state after the call — and the
block-drawn :class:`IndexStream` against scalar ``Generator.integers``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.reliability import (
    HEDGE_MIN_SAMPLES,
    HEDGE_WINDOW,
    ReliabilityEngine,
    ReliabilityPolicy,
)
from repro.core.base import NoCandidatesError, choose_min_in_table, choose_min_with_ties
from repro.sim.rng import IndexStream

# ----------------------------------------------------------------------
# hedge-delay window == np.quantile over the last HEDGE_WINDOW observations
# ----------------------------------------------------------------------
SAMPLERS = {
    "exponential": lambda rng, n: rng.exponential(0.05, n),
    "lognormal": lambda rng, n: rng.lognormal(-3.0, 1.5, n),
    # a handful of distinct values: duplicates in the window at all times
    "tied": lambda rng, n: rng.choice([0.001, 0.002, 0.002, 0.25, 7.0], n),
}


def hedging_engine(q):
    """A ReliabilityEngine with hedging only: its constructor reads
    nothing from the cluster unless breakers are on."""
    return ReliabilityEngine(SimpleNamespace(servers=()), ReliabilityPolicy(hedge_quantile=q))


quantiles = st.one_of(
    st.sampled_from([0.5, 0.9, 0.99]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(
    fill=st.sampled_from([0.3, 1.0, 2.7]),  # n < window, n = window, n > window
    q=quantiles,
    sampler=st.sampled_from(sorted(SAMPLERS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_hedge_delay_equals_numpy_quantile(fill, q, sampler, seed):
    window, min_samples = HEDGE_WINDOW, HEDGE_MIN_SAMPLES
    engine = hedging_engine(q)
    values = SAMPLERS[sampler](np.random.default_rng(seed), int(window * fill)).tolist()
    # The reference is the replaced implementation: a ring overwritten in
    # arrival order, np.quantile over its filled prefix.
    ring = np.empty(window)
    for count, value in enumerate(values, start=1):
        engine._observe(value)
        ring[(count - 1) % window] = value
        delay = engine._hedge_delay()
        if count < min_samples:
            assert delay is None
        else:
            assert delay == float(np.quantile(ring[: min(count, window)], q))


def test_hedge_window_ignores_non_finite_and_evicts_one_duplicate():
    engine = hedging_engine(0.5)
    rest = [5.0] * (HEDGE_WINDOW - 2)
    for value in (2.0, float("nan"), 2.0, float("inf"), *rest):
        engine._observe(value)
    assert engine._observed_sorted == [2.0, 2.0, *rest]
    engine._observe(1.0)  # evicts the older 2.0, not both
    assert engine._observed_sorted == [1.0, 2.0, *rest]
    assert list(engine._observed) == [2.0, *rest, 1.0]


# ----------------------------------------------------------------------
# choose_min_in_table == choose_min_with_ties, RNG state included
# ----------------------------------------------------------------------
@st.composite
def table_and_candidates(draw):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = draw(st.sampled_from([1, 2, 4, 1000]))  # 1 = all tied
    table = rng.integers(0, levels, n)
    if draw(st.booleans()):
        table = table.astype(np.float64) * 0.25
    shape = draw(st.sampled_from(["full", "filtered", "single", "shuffled", "repeated"]))
    if shape == "full":
        candidates = list(range(n))
    elif shape == "filtered":
        keep = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
        candidates = [i for i in range(n) if keep[i]] or [int(rng.integers(n))]
    elif shape == "single":
        candidates = [int(rng.integers(n))]
    elif shape == "shuffled":  # full length, not the identity order
        candidates = rng.permutation(n).tolist()
    else:  # full length, but not every server
        candidates = rng.integers(0, n, n).tolist()
    return table, candidates, seed


@settings(max_examples=300, deadline=None)
@given(table_and_candidates())
def test_choose_min_in_table_equals_list_form(case):
    table, candidates, seed = case
    rng_table, rng_list = np.random.default_rng(seed), np.random.default_rng(seed)
    before = table.copy()
    picked = choose_min_in_table(table, candidates, rng_table)
    values = [table[i] for i in candidates]
    assert picked == choose_min_with_ties(candidates, values, rng_list)
    assert type(picked) is int
    assert rng_table.bit_generator.state == rng_list.bit_generator.state
    assert (table == before).all()


def test_choose_min_in_table_draws_only_on_a_shared_minimum():
    rng = np.random.default_rng(3)
    untouched = rng.bit_generator.state
    assert choose_min_in_table(np.array([4.0, 1.0, 9.0]), [0, 1, 2], rng) == 1
    assert choose_min_in_table(np.array([0, 0, 5]), [1, 2], rng) == 1
    assert rng.bit_generator.state == untouched
    assert choose_min_in_table(np.array([0, 0, 5]), [0, 1, 2], rng) in (0, 1)
    assert rng.bit_generator.state != untouched


def test_choose_min_in_table_empty_candidates():
    with pytest.raises(NoCandidatesError):
        choose_min_in_table(np.zeros(4), [], np.random.default_rng(0))


# ----------------------------------------------------------------------
# IndexStream.integers(n) == int(Generator.integers(n)), draw for draw
# ----------------------------------------------------------------------
#: 1 consumes no word; 2**31 + 1 rejects every other word; 2**32 - 1 is
#: the largest bound numpy still routes through the 32-bit Lemire rule
EDGE_BOUNDS = [1, 2, 3, 16, 1000, 2**20 + 7, 2**31 + 1, 2**32 - 1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bound=st.one_of(st.none(), st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32 - 1)),
)
def test_index_stream_equals_scalar_generator_draws(seed, bound):
    """5 000 consecutive draws (five 1024-word blocks at the least) from
    identically seeded generators; ``bound=None`` mixes the edge bounds
    and uniform ones draw by draw."""
    generator = np.random.default_rng(seed)
    stream = IndexStream(np.random.default_rng(seed))
    if bound is None:
        chooser = np.random.default_rng(seed ^ 0x5EED)
        bounds = np.where(
            chooser.random(5000) < 0.5,
            chooser.choice(EDGE_BOUNDS, 5000),
            chooser.integers(1, 2**32, 5000),
        ).tolist()
    else:
        bounds = [bound] * 5000
    for n in bounds:
        drawn = stream.integers(n)
        assert type(drawn) is int
        assert drawn == int(generator.integers(n)), n


def test_choose_min_helpers_take_an_index_stream():
    """The tie-break is duck-typed on ``integers``: same pick either way."""
    table = np.zeros(7)
    candidates = list(range(7))
    for seed in range(20):
        stream = IndexStream(np.random.default_rng(seed))
        generator = np.random.default_rng(seed)
        assert choose_min_in_table(table, candidates, stream) == choose_min_in_table(
            table, candidates, generator
        )
        assert choose_min_with_ties(candidates, [0] * 7, stream) == choose_min_with_ties(
            candidates, [0] * 7, generator
        )

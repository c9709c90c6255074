"""Property-based tier-2 agreement: fast path vs heap engine.

For any seed and any supported policy, the batch engine must produce
the *same response-time distribution* as the exact heap engine — the
whole contract of ``--engine fast``. Hypothesis drives (seed, policy,
load) over small cells where the exact engine is cheap; agreement is
measured exactly as in :func:`repro.experiments.parity.
distribution_parity` but with thresholds widened for the short runs
(KS noise floor at n≈900 post-warmup samples is ~0.065 alone).

The kernels' non-obvious pieces are held *exactly* to plain references:
the batch Lindley recursion to a per-job scalar loop, and polling's
candidate rows to the sort-and-redraw sampler they replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import distribution_distance, ks_statistic
from repro.experiments.config import SimulationConfig
from repro.experiments.parity import fast_distribution, heap_distribution
from repro.sim import fastpath
from repro.sim.fastpath import _SCALAR_TAIL, _distinct_candidates, _lindley_assign
from tests.conftest import kernel_examples

_POLICY_PARAMS = {
    "random": {},
    "polling": {"poll_size": 2},
    "broadcast": {"mean_interval": 0.01},
    "stale_jsq": {"update_interval": 0.02},
}

KS_THRESHOLD = 0.12
OCCUPANCY_THRESHOLD = 0.12


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(sorted(_POLICY_PARAMS)),
    load=st.sampled_from([0.5, 0.8]),
)
def test_fastpath_distribution_matches_heap(seed, policy, load):
    config = SimulationConfig(
        policy=policy,
        policy_params=_POLICY_PARAMS[policy],
        workload="poisson_exp",
        load=load,
        n_servers=6,
        n_requests=1_000,
        seed=seed,
    )
    heap_responses, heap_occupancy = heap_distribution(config)
    fast_responses, fast_occupancy = fast_distribution(config)

    ks = ks_statistic(heap_responses, fast_responses)
    occ = distribution_distance(heap_occupancy, fast_occupancy)
    assert ks <= KS_THRESHOLD, (
        f"{policy} seed={seed} load={load}: response-time KS {ks:.4f}"
    )
    assert occ <= OCCUPANCY_THRESHOLD, (
        f"{policy} seed={seed} load={load}: occupancy distance {occ:.4f}"
    )


# ----------------------------------------------------------------------
# the batch Lindley recursion against a per-job loop
# ----------------------------------------------------------------------
def _lindley_reference(free, choice, arrival, service):
    """``begin = max(a, free[s]); free[s] = begin + svc``, one job at a
    time in batch order. Mutates ``free`` (a list)."""
    start, completion = [], []
    for s, a, svc in zip(choice.tolist(), arrival.tolist(), service.tolist()):
        begin = max(a, free[s])
        free[s] = begin + svc
        start.append(begin)
        completion.append(free[s])
    return start, completion


#: shapes built from server groups: the sizes of the groups that share a
#: server, every other job alone on its own
_GROUPS = {
    "pair": (2,),  # one repeated pair among singletons
    "tail": (2,) * (_SCALAR_TAIL // 2),  # exactly _SCALAR_TAIL shared jobs
    "tail+1": (2,) * (_SCALAR_TAIL // 2 - 1) + (3,),  # one too many: rank rounds
    "busy": (_SCALAR_TAIL + 1,),  # one server with one job too many: rank rounds
}


def _grouped_choice(rng, groups, n_batch, n_servers):
    """A shuffled batch of at least ``n_batch`` jobs in which one server
    per entry of ``groups`` takes that many jobs and every other job is
    alone on its server (ids below ``max(n_servers, batch size)``)."""
    n_alone = max(0, n_batch - sum(groups))
    servers = rng.permutation(max(n_servers, n_alone + sum(groups)))
    servers = servers[: n_alone + len(groups)]
    choice = np.concatenate((servers[:n_alone], np.repeat(servers[n_alone:], groups)))
    rng.shuffle(choice)
    return choice


@pytest.mark.parametrize("shape, rank_rounds", [
    ("pair", False), ("tail", False), ("tail+1", True), ("busy", True),
])
def test_scalar_tail_takes_at_most_its_size(monkeypatch, shape, rank_rounds):
    rng = np.random.default_rng(0)
    choice = _grouped_choice(rng, _GROUPS[shape], 40, 1000)
    calls = []
    monkeypatch.setattr(fastpath, "_rank_rounds", lambda *args: calls.append(args))
    out = np.empty(choice.size)
    _lindley_assign(np.zeros(1000), choice, np.bincount(choice, minlength=1000),
                    np.arange(choice.size, dtype=float), np.ones(choice.size), out, out.copy())
    assert bool(calls) == rank_rounds


@settings(max_examples=kernel_examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.sampled_from([1, 2, 11, 300, 50_000]),
    n_servers=st.integers(1, 64),
    shape=st.sampled_from(["distinct", "one_server", "mixed", *_GROUPS]),
)
@example(seed=0, n_batch=1, n_servers=1, shape="distinct")
@example(seed=1, n_batch=50_000, n_servers=64, shape="distinct")
@example(seed=2, n_batch=50_000, n_servers=64, shape="one_server")
@example(seed=3, n_batch=50_000, n_servers=64, shape="mixed")
@example(seed=4, n_batch=11, n_servers=1, shape="pair")
@example(seed=5, n_batch=11, n_servers=1, shape="tail")
@example(seed=6, n_batch=11, n_servers=1, shape="tail+1")
@example(seed=7, n_batch=11, n_servers=1, shape="busy")
@example(seed=8, n_batch=300, n_servers=64, shape="tail")
def test_lindley_assign_equals_scalar_recursion(seed, n_batch, n_servers, shape):
    rng = np.random.default_rng(seed)
    if shape == "distinct":  # collision-free: the no-grouping path
        n_servers = max(n_servers, n_batch)
        choice = rng.permutation(n_servers)[:n_batch]
    elif shape == "one_server":  # one server takes the whole batch
        choice = np.full(n_batch, rng.integers(0, n_servers))
    elif shape == "mixed":
        choice = rng.integers(0, n_servers, size=n_batch)
    else:
        choice = _grouped_choice(rng, _GROUPS[shape], n_batch, n_servers)
        n_batch, n_servers = choice.size, max(n_servers, choice.size)
    arrival = np.cumsum(rng.exponential(0.01, size=n_batch))
    service = rng.exponential(0.05, size=n_batch)
    # some servers idle before the batch, some busy past its end
    free = rng.uniform(0.0, 2.0 * float(arrival[-1]), size=n_servers)

    expected_free = free.tolist()
    expected_start, expected_completion = _lindley_reference(
        expected_free, choice, arrival, service
    )

    start = np.empty(n_batch)
    completion = np.empty(n_batch)
    counts = np.bincount(choice, minlength=n_servers)
    _lindley_assign(free, choice, counts, arrival, service, start, completion)

    # equal, not close: same max and same add per job, in the same order
    assert start.tolist() == expected_start
    assert completion.tolist() == expected_completion
    assert free.tolist() == expected_free


# ----------------------------------------------------------------------
# polling's candidate rows against the sort-and-redraw sampler
# ----------------------------------------------------------------------
def _row_sampler(rng, n_batch, d, n_servers):
    """The candidate sampler as it was before its poll-size-2 path: sort
    each row, find the rows holding a repeated id by a shifted compare,
    redraw them all, until no row repeats."""
    if d >= n_servers:
        return np.broadcast_to(np.arange(n_servers), (n_batch, n_servers)).copy()
    cand = rng.integers(0, n_servers, size=(n_batch, d))
    if d > 1:
        while True:
            ordered = np.sort(cand, axis=1)
            dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            if not dup.any():
                break
            cand[dup] = rng.integers(0, n_servers, size=(int(dup.sum()), d))
    return cand


@settings(max_examples=kernel_examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 9),
    n_servers=st.one_of(st.integers(1, 64), st.just(1000)),
    n_batch=st.sampled_from([1, 2, 56, 50_000]),
)
@example(seed=0, d=2, n_servers=3, n_batch=50_000)  # a third of the rows redrawn, ~10 rounds
@example(seed=1, d=2, n_servers=1000, n_batch=56)  # fast_scale's polling window
@example(seed=2, d=3, n_servers=3, n_batch=56)  # d == n_servers: every server, no draw
@example(seed=3, d=9, n_servers=1000, n_batch=50_000)
@example(seed=4, d=1, n_servers=64, n_batch=2)
@example(seed=5, d=3, n_servers=4, n_batch=56)  # the sorted path, ~60% of rows redrawn
def test_distinct_candidates_equal_the_row_sampler(seed, d, n_servers, n_batch):
    # The reference draws n_batch / P(a row is distinct) rows in all; past
    # a million (d near n_servers in a 50 000-row batch) an example takes
    # seconds and walks the same loop.
    p_distinct = math.prod(1 - k / n_servers for k in range(min(d, n_servers)))
    assume(d >= n_servers or n_batch / p_distinct <= 1e6)
    expected_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected = _row_sampler(expected_rng, n_batch, d, n_servers)
    cand = _distinct_candidates(rng, n_batch, d, n_servers)
    assert cand.dtype == expected.dtype
    assert np.array_equal(cand, expected)
    # the policy.polling stream is left where the reference leaves it
    assert rng.bit_generator.state == expected_rng.bit_generator.state

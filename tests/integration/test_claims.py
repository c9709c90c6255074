"""The claims table (``benchmarks/claims.py``) at ``--quick``.

Every row holds its committed verdict on seed 0, and the table can fail:
four mutants, monkeypatched into the code the rows measure, each flip
their row to FAILS. CI runs the same table at full size on three seeds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cluster.server import ServerNode
from repro.core import polling, stale
from repro.core.base import choose_min_in_table, choose_min_with_ties

ROOT = Path(__file__).resolve().parents[2]


def _load_claims():
    spec = importlib.util.spec_from_file_location("claims", ROOT / "benchmarks" / "claims.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["claims"] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


CLAIMS = _load_claims()


@pytest.fixture(scope="module")
def claims():
    return CLAIMS


@pytest.fixture(scope="module")
def quick_table(claims):
    return claims.evaluate(claims.CLAIMS, [0], quick=True)


def measured(claims, *ids: str) -> dict[str, str]:
    rows = tuple(claim for claim in claims.CLAIMS if claim.id in ids)
    outcomes, _ = claims.evaluate(rows, [0], quick=True)
    return {outcome.claim.id: outcome.measured for outcome in outcomes}


@pytest.mark.parametrize("claim", CLAIMS.CLAIMS, ids=lambda claim: claim.id)
def test_quick_row_holds_its_committed_verdict(quick_table, claim):
    outcome = next(o for o in quick_table[0] if o.claim is claim)
    assert not outcome.dropped, (outcome.measured, outcome.notes)
    assert (outcome.measured == "TEMPLATE") == (claim.driver is None)


def test_quick_table_reports_every_driver_and_lists_every_row(claims, quick_table):
    outcomes, reports = quick_table
    assert sorted(reports) == sorted(claims.DRIVERS)
    table = claims.render(outcomes, [0], quick=True)
    assert [line.split(" | ")[0] for line in table.splitlines()[2:]] == [
        f"| {claim.id}" for claim in claims.CLAIMS
    ]


def test_ignoring_discard_slow_fails_c3(claims, monkeypatch):
    init = polling.RandomPollingPolicy.__init__

    def never_discard(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.discard_slow = False

    monkeypatch.setattr(polling.RandomPollingPolicy, "__init__", never_discard)
    assert measured(claims, "C3") == {"C3": "FAILS"}


def test_dispatching_to_the_longest_reply_fails_c1(claims, monkeypatch):
    def longest(ids, values, rng):
        return choose_min_with_ties(ids, [-value for value in values], rng)

    monkeypatch.setattr(polling, "choose_min_with_ties", longest)
    assert measured(claims, "C1") == {"C1": "FAILS"}


def test_admitting_past_max_queue_fails_adm(claims, monkeypatch):
    enqueue = ServerNode.enqueue

    def unbounded(self, request):
        self.max_queue = None
        return enqueue(self, request)

    monkeypatch.setattr(ServerNode, "enqueue", unbounded)
    assert measured(claims, "ADM") == {"ADM": "FAILS"}


def test_skipping_the_local_increment_fails_stale(claims, monkeypatch):
    def select(self, client, request):
        table = client.state[stale._LOCAL_KEY] if self.local_increment else self._snapshot
        candidates = self.ctx.available_servers(client)
        self.ctx.dispatch(client, request, choose_min_in_table(table, candidates, self._rng))

    monkeypatch.setattr(stale.GlobalSnapshotPolicy, "select", select)
    assert measured(claims, "STALE") == {"STALE": "FAILS"}

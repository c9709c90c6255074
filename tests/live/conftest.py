"""A fresh :class:`~repro.live.clock.WallClock` and :class:`Probe` per
test, each closed after it (the Live hygiene CI step fails on a leaked
socket)."""

import pytest

from repro.live.clock import WallClock
from tests.live.probe import Probe


@pytest.fixture
def clock():
    clock = WallClock()
    yield clock
    clock.close()


@pytest.fixture
def probe():
    probe = Probe()
    yield probe
    probe.sock.close()

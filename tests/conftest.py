"""Suite-wide fixtures and hypothesis profiles."""

import pytest
from hypothesis import settings

#: ``--hypothesis-profile=hostile`` runs the junk-input properties (spec
#: files, datagrams, fuzz reproducers) at a budget CI can afford once;
#: tier-1 runs them at the default profile's
settings.register_profile("hostile", max_examples=2000)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Point the persistent result cache at a per-session temp dir.

    Keeps test runs hermetic (no cross-run cache hits masking a
    regression in the simulation path) and keeps ``.repro-cache/`` out
    of the working tree when the suite exercises the CLI.
    """
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.getbasetemp() / "repro-cache")
    )

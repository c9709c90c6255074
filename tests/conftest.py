"""Suite-wide fixtures and hypothesis profiles."""

import pytest
from hypothesis import settings

#: ``--hypothesis-profile=hostile`` runs the junk-input properties (spec
#: files, datagrams, fuzz reproducers, result archives, telemetry exports,
#: replay CSV traces, in-memory live recordings) and the fast-engine kernel-equality properties at a budget CI can afford
#: once; tier-1 runs them at the default profile's, or at the kernels' own
#: (``kernel_examples``)
settings.register_profile("hostile", max_examples=2000)


def kernel_examples(tier1: int) -> int:
    """A kernel-equality property's example budget: ``tier1`` under the
    default profile, the hostile profile's when that one is loaded (an
    explicit ``max_examples`` would otherwise win over the profile)."""
    hostile = settings.get_profile("hostile").max_examples
    return hostile if settings.default.max_examples == hostile else tier1


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

"""Every function has a caller: the call census is complete and current.

``called.txt`` is what ``census.py`` recorded over the repository's own
producers (the smoke targets, the examples, every CLI command, the
documented command lines, the benches); ``allowlist.txt`` names each
function none of them calls, with a category and a reason. A function
under ``src/repro`` in neither fails here: delete it if only its tests
reach it, give it a producer, or allowlist it. An entry in either that
names no function is stale, and so is an allowlisted function the census
saw called. CI regenerates ``called.txt``, so it cannot drift.

Allowlist lines are ``module:qualname category: reason``; the name may
be an ``fnmatch`` pattern, so a class of functions (the debug reprs) is
one line. The categories:

- ``finding``: runs only when something is found (the fuzz shrinker);
- ``documented``: a user feature a document shows; the reason names it;
- ``protocol``: a member a protocol or an abstract base requires;
- ``test-reference``: the reference a test holds production code to;
- ``debug``: a repr or description for a person at a prompt.
"""

from fnmatch import fnmatchcase

import pytest

from tests.census.census import ALLOWLIST, CALLED, defined_functions

CATEGORIES = {"finding", "documented", "protocol", "test-reference", "debug"}


@pytest.fixture(scope="module")
def defined() -> set[str]:
    return set(defined_functions().values())


@pytest.fixture(scope="module")
def called() -> set[str]:
    return set(CALLED.read_text().split())


@pytest.fixture(scope="module")
def allowlist() -> dict[str, tuple[str, str]]:
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, rest = line.partition(" ")
            category, _, reason = rest.partition(":")
            assert name not in entries, f"{name} is allowlisted twice"
            entries[name] = (category.strip(), reason.strip())
    return entries


def _allowed(name: str, allowlist) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in allowlist)


def test_every_function_is_called_or_allowlisted(defined, called, allowlist):
    orphans = sorted(n for n in defined - called if not _allowed(n, allowlist))
    assert not orphans, f"no producer calls {orphans}: delete, call or allowlist them"


def test_every_census_entry_names_a_function(defined, called):
    assert sorted(called - defined) == []


def test_every_allowlist_entry_names_a_function(defined, allowlist):
    stale = [p for p in allowlist if not any(fnmatchcase(n, p) for n in defined)]
    assert stale == []


def test_no_allowlisted_function_is_called(called, allowlist):
    """A single-function entry the census now sees called is stale: drop it."""
    assert sorted(set(allowlist) & called) == []


def test_every_allowlist_entry_has_a_category_and_a_reason(allowlist):
    bad = {
        name: entry
        for name, entry in allowlist.items()
        if entry[0] not in CATEGORIES or not entry[1]
    }
    assert bad == {}

"""Every function has a caller, and every name a user can pick is reached:
the call census is complete and current.

``called.txt`` is what ``census.py`` recorded over the repository's own
producers (the smoke targets, the examples, every CLI command, the
documented command lines, the benches); ``allowlist.txt`` names each
function none of them calls, with a category and a reason. A function
under ``src/repro`` in neither fails here: delete it if only its tests
reach it, give it a producer, or allowlist it. An entry in either that
names no function is stale, and so is an allowlisted function the census
saw called. CI regenerates ``called.txt``, so it cannot drift.

One level up, ``reached.txt`` holds the names the same producers built or
passed: every registered workload (``workload:<name>``), every registered
policy (``policy:<name>``) and every flag a command takes
(``flag:<command>:--<flag>``) is in it or on the allowlist, under the
same rules. A flag passed to one command is reached on every command with
the same handler: the campaign aliases of ``scenario`` share its handler
and its flag group, so they run the same code for it.

Allowlist lines are ``name category: reason``; the name may be an
``fnmatch`` pattern, so a class of functions (the debug reprs) or one
flag on every command is one line. The categories:

- ``finding``: runs only when something is found (the fuzz shrinker);
- ``documented``: a user feature a document shows; the reason names the
  ROADMAP item that will give it a producer;
- ``protocol``: a member a protocol or an abstract base requires;
- ``test-reference``: the reference a test holds production code to;
- ``debug``: a repr or description for a person at a prompt;
- ``input``: a value a person supplies each run (a seed, a path, a size,
  a file that decides which branch runs).
"""

from fnmatch import fnmatchcase

import pytest

from repro.cli import _COMMANDS
from repro.core.registry import available_policies
from repro.workload.workloads import available_workloads
from tests.census.census import ALLOWLIST, CALLED, REACHED, defined_functions

CATEGORIES = {"finding", "documented", "protocol", "test-reference", "debug", "input"}
#: allowlist entries for names rather than functions start with one of these
NAME_KINDS = ("workload:", "policy:", "flag:")


@pytest.fixture(scope="module")
def defined() -> set[str]:
    return set(defined_functions().values())


@pytest.fixture(scope="module")
def called() -> set[str]:
    return set(CALLED.read_text().split())


def _flags() -> dict[str, tuple[str, object]]:
    """``flag:<command>:--<flag>`` -> ``(--flag, handler)`` for each flag a
    command takes, as ``main`` builds its parser from the rows."""
    flags = {}
    for command, row in _COMMANDS.items():
        for dest in (("requests", "quick") if row.sizes else ()) + row.flags:
            option = "--" + dest.replace("_", "-")
            flags[f"flag:{command}:{option}"] = (option, row.handler)
    return flags


@pytest.fixture(scope="module")
def names() -> set[str]:
    """Every name a user can pick: registered workloads and policies, and
    each command's flags."""
    return (
        {f"workload:{name}" for name in available_workloads()}
        | {f"policy:{name}" for name in available_policies()}
        | set(_flags())
    )


@pytest.fixture(scope="module")
def recorded() -> set[str]:
    return set(REACHED.read_text().split())


@pytest.fixture(scope="module")
def reached(recorded) -> set[str]:
    flags = _flags()
    passed = {flags[name] for name in recorded if name in flags}
    return recorded | {name for name, key in flags.items() if key in passed}


@pytest.fixture(scope="module")
def entries() -> dict[str, tuple[str, str]]:
    found = {}
    for line in ALLOWLIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, rest = line.partition(" ")
            category, _, reason = rest.partition(":")
            assert name not in found, f"{name} is allowlisted twice"
            found[name] = (category.strip(), reason.strip())
    return found


@pytest.fixture(scope="module")
def allowlist(entries) -> dict[str, tuple[str, str]]:
    return {k: v for k, v in entries.items() if not k.startswith(NAME_KINDS)}


@pytest.fixture(scope="module")
def name_allowlist(entries) -> dict[str, tuple[str, str]]:
    return {k: v for k, v in entries.items() if k.startswith(NAME_KINDS)}


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


def test_every_allowlist_entry_has_a_category_and_a_reason(entries):
    bad = {
        name: entry
        for name, entry in entries.items()
        if entry[0] not in CATEGORIES or not entry[1]
    }
    assert bad == {}


def test_every_workload_policy_and_flag_is_reached_or_allowlisted(names, reached, name_allowlist):
    orphans = sorted(n for n in names - reached if not _allowed(n, name_allowlist))
    assert not orphans, (
        f"no producer builds or passes {orphans}: make a constant of it, give it "
        "a producer, or allowlist it"
    )


def test_every_reached_name_is_a_name(names, recorded):
    assert sorted(recorded - names) == []


def test_every_name_allowlist_entry_names_something_unreached(names, reached, name_allowlist):
    """A pattern must match an existing name, and one it matches must
    still be unreached; a single-name entry the census now sees is stale."""
    stale = [
        pattern
        for pattern in name_allowlist
        if not any(fnmatchcase(n, pattern) for n in names - reached)
    ]
    assert stale == []

"""Call census: which functions under ``src/repro`` the repository's own producers call.

    python tests/census/census.py    # rewrites tests/census/called.txt and reached.txt

Runs every producer below with this directory on ``PYTHONPATH``, so
``sitecustomize.py`` records the first call of each ``repro`` function in
every process, children and forked pool workers included. The producers
are the non-test commands the repository ships or documents: every
``make *-smoke`` target (``bench-smoke`` and ``suite-smoke`` less their
pytest lines), ``make examples``, every CLI command at ``--quick`` and
its ``-h``, the command lines README, EXPERIMENTS.md and ``docs/`` show
that a ``--quick`` line does not already cover, and ``make bench-quick``
(the claims table, ``benchmarks/claims.py --quick``, which writes no
file). Every producer starts on an empty result cache,
so a cold path is never hidden behind a hit.

The results are ``called.txt``, a sorted ``module:qualname`` list keyed
by name, not line number, and ``reached.txt``, the sorted names the
producers built or passed: ``workload:<name>`` for every
``make_workload``, ``policy:<name>`` for every ``make_policy`` and
``flag:<command>:--<flag>`` for every option a ``repro`` command line
passes. ``tests/census/test_census.py`` holds every function under
``src/repro``, every registered workload and policy and every flag a
command takes to them or to ``allowlist.txt``; CI re-runs this script
and fails when a list it writes differs from the committed one. A
producer that exits non-zero fails the run.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
CALLED = HERE / "called.txt"
REACHED = HERE / "reached.txt"
ALLOWLIST = HERE / "allowlist.txt"

sys.path.insert(0, str(SRC))
from repro.cli import _COMMANDS  # noqa: E402

PY = sys.executable
REPRO = (PY, "-m", "repro")

#: ``(why, argv)``; ``{tmp}`` is the producer's own scratch directory
PRODUCERS = [
    *[(f"make {target}", ("make", "-s", f"PYTHON={PY}", target)) for target in (
        "telemetry-smoke", "chaos-smoke", "resilience-smoke", "overload-smoke",
        "autoscale-smoke", "scenario-smoke", "fuzz-smoke", "serve-smoke", "examples")],
    # bench-smoke less its tier-1 pytest line
    ("make bench-smoke", (*REPRO, "fig3", "--quick")),
    ("make bench-smoke", (*REPRO, "parity", "--quick")),
    ("make bench-smoke", (*REPRO, "fastparity", "--quick")),
    # suite-smoke less the suite's own unit tests
    ("make suite-smoke", (PY, "benchmarks/suite/run.py", "--smoke", "--trace", "1")),
    ("CI command table", (*REPRO, "list")),
    *[("CI command table", (*REPRO, name, "-h")) for name in _COMMANDS],
    *[(f"repro {name} --quick", (*REPRO, name, "--quick")) for name in (
        "fig2", "fig4", "fig6", "table2", "profile", "messages", "compare", "scenario",
        "fuzz", "trace")],
    ("repro table1", (*REPRO, "table1")),
    ("README", (*REPRO, "compare", "--quick", "--workload", "poisson_lognormal",
                "--load", "0.7")),
    ("README", (*REPRO, "fig6", "--quick", "--oracle")),
    ("README", (*REPRO, "messages", "--quick", "--engine", "fast")),
    ("README", (*REPRO, "scenario", "--spec", "overload", "--quick", "--oracle",
                "--export-dir", "{tmp}/overload.json")),
    ("README", (*REPRO, "scenario", "--spec", "examples/grid.json", "--validate")),
    ("README", (*REPRO, "fuzz", "--replay",
                "tests/verify/corpus/lc-double-decrement-retry-storm.json")),
    ("EXPERIMENTS.md", (*REPRO, "scenario", "--quick", "--validate")),
    ("EXPERIMENTS.md", (*REPRO, "autoscale", "--quick", "--seed", "0", "--oracle")),
    ("EXPERIMENTS.md", (*REPRO, "drive", "--quick", "--seed", "0", "--poll-sizes", "2",
                        "--export-dir", "{tmp}/live", "--record-trace", "{tmp}/live.csv")),
    ("docs/api-walkthrough.md", (*REPRO, "trace", "--quick", "--policy", "broadcast",
                                 "--policy-param", "mean_interval=0.1",
                                 "--export-dir", "{tmp}/out")),
    ("make bench-quick", ("make", "-s", f"PYTHON={PY}", "bench-quick")),
]


def defined_functions(src: Path = SRC) -> dict[tuple[str, int, str], str]:
    """``(path under src, co_firstlineno, name) -> "module:qualname"`` for every
    ``def`` under ``src/repro``. A decorated function's code object starts
    at its first decorator, so that is the line it is keyed by."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[rel, line, child.name] = f"{module}:{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def recorded() -> tuple[set[tuple[str, int, str]], set[str]]:
    """Every ``(path, firstlineno, name)`` the hook wrote, and every
    ``kind:name`` it recorded by argument, over all processes."""
    seen, reached = set(), set()
    for path in OUT.glob("*.txt"):
        for line in path.read_text().splitlines():
            if line.startswith("@"):
                reached.add(line[1:])
                continue
            rel, lineno, name = line.rsplit(":", 2)
            seen.add((rel, int(lineno), name))
    return seen, reached


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    began = time.perf_counter()
    failed = []
    try:
        for why, argv in PRODUCERS:
            with tempfile.TemporaryDirectory(prefix="census-") as tmp:
                argv = [arg.replace("{tmp}", tmp) for arg in argv]
                started = time.perf_counter()
                done = subprocess.run(
                    argv, cwd=ROOT, env=dict(env, REPRO_CACHE_DIR=f"{tmp}/cache"),
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                wall = time.perf_counter() - started
                print(f"[{wall:6.1f}s] {why}: {' '.join(argv[1:] if argv[0] == PY else argv)}"
                      f"{'' if done.returncode == 0 else f'  EXIT {done.returncode}'}",
                      file=sys.stderr)
                if done.returncode != 0:
                    failed.append(f"{' '.join(argv)} exited {done.returncode}:\n"
                                  f"{done.stderr[-2000:]}")
        seen, reached = recorded()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    defined = defined_functions()
    called = sorted({name for key, name in defined.items() if key in seen})
    CALLED.write_text("".join(f"{name}\n" for name in called))
    REACHED.write_text("".join(f"{name}\n" for name in sorted(reached)))
    print(f"census: {len(called)} of {len(defined)} functions called, "
          f"{len(defined) - len(called)} not, {len(reached)} names reached, "
          f"in {time.perf_counter() - began:.0f}s -> {CALLED.relative_to(ROOT)}, "
          f"{REACHED.relative_to(ROOT)}", file=sys.stderr)
    for failure in failed:
        print(f"census: producer failed: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""cache_rerun.py COMMAND [ARG ...]  (the Makefile's campaign smokes, CI's fig3 and fig6 smokes)

Runs COMMAND twice and echoes both runs' stdout. The second run must be
served from the result cache with the first run's output:

- its ``[cache: N hits, M misses -> DIR]`` line shows ``M == 0``;
- its stdout, less that line and the ``[... regenerated in Xs]`` wall-time
  line, equals the first run's, less the same two lines.

Exit 1 naming what broke either promise, or when COMMAND itself fails.

    python benchmarks/cache_rerun.py python -m repro chaos --quick --seed 0
"""

import difflib
import re
import subprocess
import sys

_CACHE_LINE = re.compile(r"\[cache: (\d+) hits, (\d+) misses -> .*\]")
_WALL_LINE = re.compile(r"\[.* regenerated in [0-9.]+s\]")


def run(argv: list[str]) -> list[str]:
    """COMMAND's stdout lines, echoed; stderr passes straight through."""
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode:
        raise SystemExit(f"cache_rerun: {' '.join(argv)} exited {done.returncode}")
    return done.stdout.splitlines()


def problems(first: list[str], second: list[str]) -> list[str]:
    """What the second run breaks of the two promises; empty if nothing."""
    out = []
    footers = [m for m in map(_CACHE_LINE.fullmatch, second) if m]
    if not footers:
        out.append("the second run printed no [cache: ...] line")
    out.extend(
        f"the second run was not served from the cache: {m.group(0)}"
        for m in footers if int(m.group(2))
    )
    a, b = ([line for line in lines
             if not _CACHE_LINE.fullmatch(line) and not _WALL_LINE.fullmatch(line)]
            for lines in (first, second))
    if a != b:
        diff = difflib.unified_diff(a, b, "first run", "second run", lineterm="", n=1)
        out.append("the second run's output differs from the first's:\n" + "\n".join(diff))
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first = run(argv)
    second = run(argv)
    found = problems(first, second)
    for problem in found:
        print(f"cache_rerun: {problem}", file=sys.stderr)
    if not found:
        print("cache_rerun: second run served entirely from the cache, same output")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

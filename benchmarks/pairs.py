"""pairs.py WORKLOAD PARENT_DIR CHANGE_DIR [N=10, at least 2] [SEED=0] [SECONDS=10]  (`make bench-pairs`)

Runs each tree's own ``benchmarks/suite/run.py --trace 0`` N times per side,
alternating which side goes first, checks ``correct``/``failed``/``sim_fingerprint``
on every pair, prints per-metric medians, quartiles, wins and a verdict against the
metric's ``bound`` in the parent's ``BENCHMARK.json``:

- ``over bound``: the change's median is worse than the parent's by more than the bound;
- ``gain``: the change wins at least 9 pairs in 10 and its median is better by more
  than the parent's interquartile range;
- ``unresolved``: either side's interquartile range is wider than the bound, so a
  shift of that size could hide in the spread;
- ``ok``: none of these.

Exit 1 on a failed check or on any ``over bound``.
A side whose ``run.py`` dies before printing its result fails its pair, naming the
side, the tree, the exit code and the tail of its stderr, and ends the run: the
other side of that pair and every later pair are skipped.
"""

import json
import statistics
import subprocess
import sys

#: stderr lines a failed side's report keeps
STDERR_TAIL = 20


class RunFailed(Exception):
    """A side's ``run.py`` exited without printing its result."""


def run_once(tree: str, workload: str, seed: str, seconds: str) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    details = [x for x in lines if x.startswith("DETAIL {")]
    if not details or not lines[-1].startswith("{"):
        tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"tree {tree}: run.py exited {done.returncode} before its result; "
                        f"stderr ends:\n{tail}")
    detail = json.loads(details[-1][7:])
    result = json.loads(lines[-1])
    return {
        "ok": done.returncode == 0 and result["correct"] and result["failed"] == 0,
        "fingerprint": detail["fingerprint"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def main(workload, parent, change, n="10", seed="0", seconds="10") -> int:
    trees, n = {"parent": parent, "change": change}, int(n)
    with open(f"{parent}/BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    pairs, sound = [], True
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {}
        for side in order:
            try:
                run[side] = run_once(trees[side], workload, seed, seconds)
            except RunFailed as failed:
                print(f"pair {i + 1}/{n}: {side} side failed, {failed}", file=sys.stderr, flush=True)
                break
        if len(run) < 2:  # a tree that dies once will die again: stop here
            sound = False
            break
        p, c = run["parent"], run["change"]
        same = p["fingerprint"] == c["fingerprint"]
        sound &= same and p["ok"] and c["ok"]
        pairs.append(run)
        print(f"pair {i + 1}/{n} first={order[0]} fingerprint_equal={same} "
              f"ok={p['ok']}/{c['ok']} wall_s {p['wall_s']:.4f}/{c['wall_s']:.4f}", flush=True)
    print(f"{workload} seed={seed} seconds={seconds} pairs={len(pairs)} of {n}")
    over = []
    for metric in metrics if len(pairs) >= 2 else ():
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        ps, cs = ([pair[side][name] for pair in pairs] for side in ("parent", "change"))
        wins = sum(sign * c < sign * p for p, c in zip(ps, cs))
        (pq1, pm, pq3), (cq1, cm, cq3) = (
            statistics.quantiles(xs, n=4, method="inclusive") for xs in (ps, cs)
        )
        verdict = verdict_of((pq1, pm, pq3), (cq1, cm, cq3), sign, metric["bound"],
                             wins, len(pairs))
        if verdict == "over bound":
            over.append(name)
        print(f"  {name:19s} parent {pm:.5g} [{pq1:.5g}, {pq3:.5g}]  change {cm:.5g} "
              f"[{cq1:.5g}, {cq3:.5g}]  worse by {sign * (cm - pm) / pm:+.1%}  "
              f"parent IQR {pq3 - pq1:.3g}  wins {wins}/{len(pairs)}  "
              f"bound {metric['bound']:.0%}: {verdict}")
    print(f"  every pair correct, failed 0, sim_fingerprint equal: {sound}")
    if over:
        print(f"  over bound: {', '.join(over)}")
    return 0 if sound and not over else 1


def verdict_of(parent_q, change_q, sign, bound, wins, n) -> str:
    """One metric's verdict (module docstring) from each side's quartiles;
    ``sign`` is +1 where lower is better, -1 where higher is."""
    (pq1, pm, pq3), (cq1, cm, cq3) = parent_q, change_q
    if sign * (cm - pm) / pm > bound:
        return "over bound"
    if 10 * wins >= 9 * n and sign * (pm - cm) > pq3 - pq1:
        return "gain"
    if max(pq3 - pq1, cq3 - cq1) > bound * abs(pm):
        return "unresolved"
    return "ok"


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

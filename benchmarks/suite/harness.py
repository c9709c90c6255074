"""Timing protocol shared by every workload: host probe, meter, statistics.

Host time on the sandbox this suite was built on moves by 1.5-2x in
episodes that last seconds to minutes (README, "Noise"), so no raw
wall-clock number repeats. Every host-time metric is therefore taken as
a *ratio*: timed slices of the program are interleaved with a fixed
probe kernel, and a slice's time is scaled by ``K_REF_S / probe time``
measured right around it. The result reads in seconds on a reference
host whose probe takes ``K_REF_S``; raw times are printed beside it.
"""

from __future__ import annotations

import heapq
import json
import resource
import statistics
import time
from typing import Any, Callable, Sequence

#: probe time on the reference host (the quiet mode of the 2-core
#: container the first baseline was measured on)
K_REF_S = 0.0045

#: the discarded warm-up repeat runs the unit at this share of its size
WARMUP_SCALE = 0.25

_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("queue", "busy", "done")

    def __init__(self) -> None:
        self.queue: list = []
        self.busy = False
        self.done = 0

    def offer(self, job: tuple, now: float, heap: list, seq: int) -> int:
        if self.busy:
            self.queue.append(job)
            return seq
        self.busy = True
        heapq.heappush(heap, (now + job[1], seq + 1, self, job))
        return seq + 1

    def finish(self, now: float, heap: list, seq: int) -> int:
        self.done += 1
        if self.queue:
            job = self.queue.pop(0)
            heapq.heappush(heap, (now + job[1], seq + 1, self, job))
            return seq + 1
        self.busy = False
        return seq


_WALK: tuple | None = None


def _walk_table() -> tuple:
    """~20 MB of small objects for the probe's pointer-chasing half."""
    global _WALK
    if _WALK is None:
        n = 100_000
        _WALK = (
            [(i, float(i)) for i in range(n)],
            {i: (i * 7) % n for i in range(n)},
            n,
        )
    return _WALK


def probe() -> float:
    """Run the fixed host-speed kernel once; returns its wall seconds.

    Two halves, sized ~60/40 on a quiet host: a tiny discrete-event
    loop (objects, ``heapq``, dict writes, float arithmetic — what the
    exact engines do) and a dependent walk over a table larger than the
    CPU caches. Interpreter-bound code alone slows *more* than the
    repository's code when the host is contended and memory-bound code
    alone slows less; this mix tracked both the heap and the numpy
    engine within ~3-5% over 10 s windows where raw time moved 35%.
    The kernel touches no repository code, so a change to the program
    cannot move it.
    """
    table, hops, n = _walk_table()
    started = time.perf_counter()
    nodes = [_Node() for _ in range(8)]
    heap: list = []
    seq = 0
    now = 0.0
    x = 12345
    stats: dict = {}
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        now += 0.001 + (x & 1023) * 1e-6
        while heap and heap[0][0] <= now:
            when, _, node, job = heapq.heappop(heap)
            seq = node.finish(when, heap, seq)
            stats[job[0] & 255] = when - job[2]
        seq = nodes[x & 7].offer((i, 0.004 + ((x >> 10) & 1023) * 4e-6, now), now, heap, seq)
    acc = 0.0
    for i in range(2000):
        x = hops[x % n]
        acc += table[x][1]
        x = (x * 31 + i) % n
    return time.perf_counter() - started


#: cold-probe CPU per burst on the reference host (same quiet mode)
COLD_REF_S = 0.00026
_COLD_BURSTS = 80
_COLD_SLEEP_S = 0.005
_COLD_MESSAGE = {"kind": "request", "id": 123456, "attempt": 0, "service": 0.005, "client": 3, "t": 1234.5678}


def cold_probe() -> float:
    """CPU seconds of one short burst run straight after a 5 ms sleep.

    The reference for a program that sleeps between bursts, as the live
    runtime does between datagrams: what such a burst costs is set by how
    cold the core is when it wakes, which :func:`probe`, run hot, does not
    see at all. Over ten minutes in which the live runtime's CPU per
    request moved 1.6x, dividing by :func:`probe` widened the spread of
    10 s medians from 0.18 to 0.30; dividing by this kernel narrowed it
    to 0.07. A burst is a few JSON round trips, a small heap and a short
    walk over the same table as :func:`probe`; no repository code.
    """
    table, hops, n = _walk_table()
    x = 12345
    started = time.process_time()
    for _ in range(_COLD_BURSTS):
        time.sleep(_COLD_SLEEP_S)
        for _ in range(6):
            json.loads(json.dumps(_COLD_MESSAGE))
        heap: list = []
        for i in range(120):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x & 1023, i))
            if len(heap) > 8:
                heapq.heappop(heap)
        acc = 0.0
        for i in range(60):
            x = hops[x % n]
            acc += table[x][1]
            x = (x * 31 + i) % n
    return (time.process_time() - started) / _COLD_BURSTS


def cpu_seconds() -> float:
    """Process CPU, user+system, reaped children included.

    ``os.times`` ticks at 100 Hz, too coarse for a repeat that burns
    50 ms; these two clocks read in micro- and nanoseconds.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process or its largest reaped
    child, whichever is larger (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# meter: slices interleaved with probes
# ----------------------------------------------------------------------
class Slice:
    """One timed call: raw wall/CPU seconds and the probe time around it."""

    __slots__ = ("name", "wall", "cpu", "probe", "k_ref")

    def __init__(self, name: str, wall: float, cpu: float, probe_s: float, k_ref: float = K_REF_S):
        self.name = name
        self.wall = wall
        self.cpu = cpu
        self.probe = probe_s
        self.k_ref = k_ref

    @property
    def factor(self) -> float:
        return self.k_ref / self.probe

    @property
    def wall_ref(self) -> float:
        """Wall seconds on the reference host."""
        return self.wall * self.factor


class Meter:
    """Times calls with a probe before and after each; adjacent slices
    share the probe between them. ``probe_fn`` reads ``k_ref`` seconds on
    the reference host."""

    def __init__(self, probe_fn: Callable[[], float] = probe, k_ref: float = K_REF_S) -> None:
        self.probe_fn = probe_fn
        self.k_ref = k_ref
        self.slices: list[Slice] = []
        self.probes: list[float] = []
        self._last: float | None = None
        #: set by a traced pass: ``span(name)`` -> context manager opened
        #: around every slice
        self.span: Callable[[str], Any] | None = None

    def run(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        before = self._last
        if before is None:
            before = self.probe_fn()
            self.probes.append(before)
        wall0 = time.perf_counter()
        cpu0 = cpu_seconds()
        if self.span is None:
            out = fn(*args, **kwargs)
        else:
            with self.span(name):
                out = fn(*args, **kwargs)
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
        after = self.probe_fn()
        self.probes.append(after)
        self._last = after
        self.slices.append(Slice(name, wall, cpu, 0.5 * (before + after), self.k_ref))
        return out

    def since(self, mark: int) -> "Totals":
        return Totals(self.slices[mark:])


class Totals:
    """Sums over a run of slices; the reference-host scale is the ratio
    of sums, so a slice that straddles a host-speed change is weighted
    by its length, not counted as an outlier."""

    def __init__(self, slices: Sequence[Slice]):
        self.wall = sum(s.wall for s in slices)
        self.cpu = sum(s.cpu for s in slices)
        weight = sum(s.wall / s.factor for s in slices)
        self.factor = self.wall / weight if weight > 0 else 1.0

    @property
    def wall_ref(self) -> float:
        return self.wall * self.factor

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.factor


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: Sequence[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {
        "value": med,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def iqr_share(summary: dict) -> float:
    """Inter-quartile range as a share of the median."""
    return (summary["q3"] - summary["q1"]) / abs(summary["value"]) if summary["value"] else 0.0


def highest_percentile(n_samples: int) -> float:
    """Highest reportable percentile: at least ten samples lie beyond it."""
    best = 0.0
    for p in _PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best

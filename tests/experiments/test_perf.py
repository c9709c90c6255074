"""The scale gate's failure line (experiments/perf.py)."""

from repro.experiments.perf import check_scale_regression


def scale_run(heap_rate, fast_rate):
    return {
        "entries": [
            {"policy": "broadcast", "engine": "heap", "requests_per_sec": heap_rate},
            {"policy": "broadcast", "engine": "fast", "requests_per_sec": fast_rate},
        ],
        "speedups": {"broadcast": fast_rate / heap_rate},
    }


def test_ratio_failure_names_both_engines_rates():
    """The gate is fast/heap, so a faster heap trips it: the line must
    show that the heap moved and the fast engine did not."""
    baseline = scale_run(2_796.0, 148_007.0)
    faster_heap = scale_run(3_800.0, 148_000.0)
    (failure,) = check_scale_regression(faster_heap, baseline)
    assert failure == (
        "broadcast: speedup 38.9x fell below 39.7x (baseline 52.9x - 25%; "
        "heap 2796 -> 3800 req/s, fast 148007 -> 148000 req/s)"
    )


def test_within_tolerance_passes():
    assert check_scale_regression(scale_run(3_000.0, 148_000.0), scale_run(2_796.0, 148_007.0)) == []

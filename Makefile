# Convenience targets for the reproduction repo.

PYTHON ?= python

.PHONY: install test test-fast bench bench-quick bench-smoke chaos-smoke telemetry-smoke resilience-smoke overload-smoke autoscale-smoke scenario-smoke fuzz-smoke serve-smoke suite-smoke bench-pairs examples figures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The paper's claims and the ablations beyond it as one verdict table
# (benchmarks/claims.py: one row per claim, full size on seeds 0, 1 and
# 2; exits 1 when a row measures below its committed verdict). The quick
# pass runs the table at tier-1 size, which writes no output file.
bench:
	$(PYTHON) benchmarks/claims.py

bench-quick:
	$(PYTHON) benchmarks/claims.py --quick

# CI smoke: tier-1 tests, a quick figure bench (exercising the sweep
# engine + result cache), then the two engine validations: heap vs
# calendar bit-identity, and the fast engine against heap distributions
# at N=8 and the mean-field limit at N=1000. Wall-clock numbers are
# suite-smoke's business (benchmarks/suite/), not this target's.
bench-smoke:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m repro fig3 --quick
	$(PYTHON) -m repro parity --quick
	$(PYTHON) -m repro fastparity --quick

# Tiny telemetry-on run; the exported spans.jsonl/series.csv are
# re-read and validated against the schema by the trace command itself.
telemetry-smoke:
	$(PYTHON) -m repro trace --quick --seed 0 --export-dir .telemetry-smoke

# Tiny fixed-seed campaigns, one target per builtin spec: chaos (fault
# intensity sweep), resilience (naive vs hardened under identical fault
# schedules), overload (static vs adaptive admission under identical
# arrival schedules), autoscale (static vs autoscaled pool behind the
# dispatcher tier, incl. a dispatcher crash-storm fault axis). Each
# `repro <name>` is an alias of `repro scenario --spec <name>`.
# benchmarks/cache_rerun.py runs it twice and fails unless the second
# invocation is served entirely from the result cache (0 misses) with
# bit-identical output (less the cache and wall-time footers).
chaos-smoke resilience-smoke overload-smoke autoscale-smoke: %-smoke:
	$(PYTHON) benchmarks/cache_rerun.py $(PYTHON) -m repro $* --quick --seed 0

# Quick composed scenario (<60s): validates every builtin spec (the
# extension campaigns and the paper's figures) and the example spec
# file, then runs the trimmed composed grid — chaos + hardened
# reliability + overload control + one trace-replay workload across two
# cluster scales — and examples/grid.json (a replay_file cell over the
# committed examples/grid-trace.csv), each twice: the second invocation
# must be served entirely from the result cache with bit-identical
# output (benchmarks/cache_rerun.py).
scenario-smoke:
	for spec in composed chaos resilience overload autoscale fig3 fig4 fig6 table2 messages; do \
		$(PYTHON) -m repro scenario --spec $$spec --quick --validate || exit 1; done
	$(PYTHON) -m repro scenario --spec examples/grid.json --validate
	$(PYTHON) benchmarks/cache_rerun.py $(PYTHON) -m repro scenario --quick --seed 0
	$(PYTHON) benchmarks/cache_rerun.py $(PYTHON) -m repro scenario --spec examples/grid.json

# Invariant-oracle smoke (<90s): validate the committed reproducer
# corpus, replay it on both engines, then run 100 fuzzer-generated
# fault schedules under the oracle (exits nonzero on any violation,
# deadlock, or cross-engine divergence; shrunk reproducers land in
# .fuzz-findings/ for triage).
fuzz-smoke:
	$(PYTHON) -m repro fuzz --validate
	for spec in tests/verify/corpus/*.json; do \
		$(PYTHON) -m repro fuzz --replay $$spec || exit 1; done
	$(PYTHON) -m repro fuzz --seed 0 --budget 100

# Live loopback smoke (<60s): boots a standalone server node for a
# couple of seconds, then runs the quick sim-vs-real poll-size ladder —
# real UDP servers + client agents over loopback, spin-mode
# service work, 240 requests per poll size. Wall-clock latencies are
# machine-dependent so there is no latency assertion here: completing
# every request is the gate, and the hard timeouts catch a hung event
# loop (the ladder itself enforces zero unexpected failures).
serve-smoke:
	timeout -k 5 20 $(PYTHON) -m repro serve --port 0 --time-limit 2
	timeout -k 10 55 $(PYTHON) -m repro drive --quick --seed 0

# Benchmark-suite smoke (~90s): every workload once at smoke size with
# its output checks, the traced pass (the tracer patches
# ServiceCluster/ClusterMetrics/Network class attributes, so a rename
# or a moved method fails here), then the suite's own unit tests.
suite-smoke:
	$(PYTHON) benchmarks/suite/run.py --smoke --trace 1
	$(PYTHON) -m pytest benchmarks/suite/test_suite.py -q

# The ritual every perf claim rests on (ROADMAP, choosing-metrics §8):
# N alternating parent/change runs of a suite workload from two
# sibling scratch trees, each pair checked for correct / failed /
# sim_fingerprint, then per-metric medians, quartiles and wins. W may
# name several workloads: benchmarks/pairs.py runs once per workload,
# and the target exits non-zero if any run fails or is over bound.
#   make bench-pairs W="exact_core hardened_stack" PARENT=../parent CHANGE=../change [N=10 SEED=0 SECONDS=10]
N ?= 10
SEED ?= 0
SECONDS ?= 10
bench-pairs:
	@test -n "$(W)" || { echo "bench-pairs: set W to one or more workloads"; exit 2; }
	@status=0; for w in $(W); do \
		$(PYTHON) benchmarks/pairs.py $$w $(PARENT) $(CHANGE) $(N) $(SEED) $(SECONDS) || status=1; \
	done; exit $$status

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/search_engine_trace.py
	$(PYTHON) examples/photo_album_cluster.py
	$(PYTHON) examples/failure_resilience.py

figures:
	$(PYTHON) -m repro table1
	$(PYTHON) -m repro fig2
	$(PYTHON) -m repro fig3
	$(PYTHON) -m repro fig4
	$(PYTHON) -m repro fig6
	$(PYTHON) -m repro table2
	$(PYTHON) -m repro profile
	$(PYTHON) -m repro messages

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/output build *.egg-info src/*.egg-info
	rm -rf .repro-cache .telemetry-smoke .fuzz-findings
	find . -name __pycache__ -type d -exec rm -rf {} +

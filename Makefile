# Entry points for the tier-1 suite, the benchmarks, and campaign smokes.
# Everything runs from the source tree: no install step needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke perf-smoke campaign-smoke attack-smoke \
	dse-smoke harness-smoke scaling-smoke obs-smoke coverage-smoke \
	trace-smoke service-smoke examples-smoke perfbench-selftest bench-gate \
	clean

# Regression threshold (percent) for `make bench-gate`.
BENCH_GATE ?= 25

test:  ## tier-1: the whole unit/integration suite, fail fast
	$(PYTHON) -m pytest -x -q

bench:  ## every paper-artifact benchmark; tables land in results/
	# Explicit file list: pytest's default python_files (test_*.py) skips
	# bench_*.py when collecting the directory, but not named files.
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

bench-smoke:  ## the two fastest benchmarks: engine scaling + §6.3 coverage
	$(PYTHON) -m pytest benchmarks/bench_campaign_scaling.py \
	    benchmarks/bench_fault_analysis.py -q

# perf-smoke fails unless the golden backend beats full by >= 3x at one
# worker; throughput tables land in results/ (see docs/PERFORMANCE.md).
perf-smoke:  ## both campaign backends on a tiny corpus, speedup enforced
	$(PYTHON) -m pytest benchmarks/bench_campaign_scaling.py -q

campaign-smoke:  ## tiny 2-worker campaign through the CLI, with resume
	$(PYTHON) -m repro campaign sha --scale tiny --faults 32 --workers 2 \
	    --seed 42 --out results/campaign_smoke.jsonl
	$(PYTHON) -m repro campaign sha --scale tiny --faults 32 --workers 2 \
	    --seed 42 --out results/campaign_smoke.jsonl --resume

attack-smoke:  ## tiny 2-worker attack sweep through the CLI, with resume
	$(PYTHON) -m repro attack sha --scale tiny --class all --per-class 4 \
	    --workers 2 --seed 42 --out results/attack_smoke.jsonl \
	    --json results/attack_smoke.json
	$(PYTHON) -m repro attack sha --scale tiny --class all --per-class 4 \
	    --workers 2 --seed 42 --out results/attack_smoke.jsonl --resume \
	    --json results/attack_smoke.json

# scaling-smoke is the CI face of the parallel-scaling work: the full
# invariance tier (worker count / batch plan / pool reuse / kill-resume
# never change a byte of the results) plus a 2-worker micro-scaling
# check on warm pools.  The 4-worker >= 2x gate itself lives in
# bench_campaign_scaling.py::test_scaling_gate and skips - visibly,
# never trivially passes - on hosts with < 4 effective cores.
scaling-smoke:  ## scaling invariance tier + 2-worker micro-scaling check
	$(PYTHON) -m pytest tests/exec/test_scaling_invariants.py \
	    "benchmarks/bench_campaign_scaling.py::test_two_worker_micro_scaling" \
	    -q

# harness-smoke exercises the one execution harness through BOTH of its
# clients: a campaign and a DSE sweep are each killed after their first
# shard(s) (--stop-after-shards) and then resumed to completion from the
# JSONL commit markers, on the golden backend with 2 workers.  The
# chunks leave several shards to resume, so each resumed run forks a
# pool, and its metrics must show the pool built, each program recorded
# once (one per workload for the sweep) and no recording in any
# worker's shard telemetry: the workers inherit the parent's workspace.
harness_gate = $(PYTHON) -c "import json, sys; \
	metrics = json.load(open('$(1)')); \
	counters = metrics['telemetry']['counters']; \
	expected = len(metrics['manifest'].get('workloads') or [None]); \
	built = counters.get('pool.build', 0); \
	recorded = counters.get('golden.stores_recorded', 0); \
	in_workers = sum((shard.get('telemetry') or {}).get('counters', {}).get('golden.stores_recorded', 0) for shard in metrics['shards']); \
	print(f'harness-smoke: {built} pool builds, {recorded} recordings of {expected} programs, {in_workers} in workers'); \
	sys.exit(0 if built >= 1 and recorded == expected and in_workers == 0 else 1)"

harness-smoke:  ## kill -> resume on both harness clients (campaign + DSE)
	$(PYTHON) -m repro campaign sha --preset smoke --workers 2 --seed 42 \
	    --chunk 8 --out results/harness_smoke_campaign.jsonl \
	    --stop-after-shards 1
	$(PYTHON) -m repro campaign sha --preset smoke --workers 2 --seed 42 \
	    --chunk 8 --out results/harness_smoke_campaign.jsonl --resume
	$(call harness_gate,results/harness_smoke_campaign.metrics.json)
	$(PYTHON) -m repro dse sweep --preset smoke --workers 2 --seed 42 \
	    --chunk 2 --out results/harness_smoke_dse.jsonl --stop-after-shards 1
	$(PYTHON) -m repro dse sweep --preset smoke --workers 2 --seed 42 \
	    --chunk 2 --out results/harness_smoke_dse.jsonl --resume
	$(call harness_gate,results/harness_smoke_dse.metrics.json)

# The first sweep's counters show one recording per workload in the whole
# process tree (the parent records it to derive the context, the forked
# workers inherit it) and one store per measure the golden backend ran,
# each a monitor overlaid on the recording, which has none.
dse-smoke:  ## tiny 2-worker DSE sweep through the CLI, with resume + frontier
	$(PYTHON) -m repro dse sweep --preset smoke --workers 2 \
	    --seed 42 --out results/dse_smoke.jsonl
	$(PYTHON) -c "import json, sys; \
	metrics = json.load(open('results/dse_smoke.metrics.json')); \
	counters = metrics['telemetry']['counters']; \
	workloads = len(metrics['manifest']['workloads']); \
	recorded = counters.get('golden.stores_recorded', 0); \
	stores = counters.get('golden.stores_overlaid', 0); \
	measures = counters.get('dse.measures', 0); \
	print(f'dse-smoke: {recorded} recordings of {workloads} workloads, {stores} stores, {measures} measures'); \
	sys.exit(0 if recorded == workloads and stores == measures > 0 else 1)"
	$(PYTHON) -m repro dse sweep --preset smoke --workers 2 \
	    --seed 42 --out results/dse_smoke.jsonl --resume
	$(PYTHON) -m repro dse frontier results/dse_smoke.jsonl \
	    --json results/dse_smoke_frontier.json
	$(PYTHON) -m repro dse report results/dse_smoke.jsonl \
	    --out results/dse_smoke_report.txt

# obs-smoke proves the telemetry pipeline end to end: a tiny golden
# campaign leaves results/obs_smoke.metrics.json beside its JSONL
# (manifest + merged spans/counters + per-shard stats), its counters show
# the pristine program was recorded once, with no monitor, and its one
# store overlaid on that recording (it also prints the pristine
# instructions the golden kernel replayed per fault), then `repro stats
# --check` renders it and validates it against the metrics schema —
# exiting 1 if the file is missing or malformed.
obs-smoke:  ## tiny campaign -> metrics.json present, schema-valid, rendered
	$(PYTHON) -m repro campaign bitcount --scale tiny --backend golden \
	    --faults 24 --chunk 6 --seed 42 --out results/obs_smoke.jsonl
	$(PYTHON) -c "import json, sys; \
	counters = json.load(open('results/obs_smoke.metrics.json'))['telemetry']['counters']; \
	recorded = counters.get('golden.stores_recorded', 0); \
	overlaid = counters.get('golden.stores_overlaid', 0); \
	replayed = counters.get('golden.batch.prefix_replayed', 0) / max(counters.get('golden.batch.fork', 0), 1); \
	print(f'obs-smoke: {recorded} recordings, {overlaid} overlaid stores, {replayed:.2f} prefix instructions replayed per fault'); \
	sys.exit(0 if recorded == 1 and overlaid == 1 else 1)"
	$(PYTHON) -m repro stats results/obs_smoke.metrics.json --check

# coverage-smoke is the ground-truth gate (docs/COVERAGE.md): every
# committed matrix under results/coverage/ must be schema-valid with an
# intact fingerprint, and two corpora are re-derived and diffed cell by
# cell against their committed ground truth.  The attack corpus re-runs
# whole; the pair corpus re-runs its cheapest workload (--workload
# bitcount) so the gate stays minutes, not hours — `repro coverage diff`
# with no restriction re-derives everything.
coverage-smoke:  ## committed coverage matrices: check + cell-by-cell diff
	$(PYTHON) -m repro coverage check results/coverage
	$(PYTHON) -m repro coverage diff results/coverage/attacks_tiny.json
	$(PYTHON) -m repro coverage diff results/coverage/pairs_tiny.json \
	    --workload bitcount
	# A fresh run also leaves an aggregated, schema-valid telemetry
	# sibling beside its artifact (parity with campaign/DSE --out).
	$(PYTHON) -m repro coverage run attacks-tiny \
	    --out results/coverage_smoke.json
	$(PYTHON) -m repro stats results/coverage_smoke.metrics.json --check

# trace-smoke proves the live half of the observability stack end to
# end: a tiny campaign runs in the background while `repro top` tails
# its event log to completion, then the run is exported as a
# Chrome/Perfetto trace (schema-checked by the exporter) and its metrics
# artifact is self-diffed under a gate — which must report +0.0% and
# exit 0.
trace-smoke:  ## background campaign -> live follow -> trace export -> self-diff
	rm -f results/trace_smoke.jsonl results/trace_smoke.events.jsonl \
	    results/trace_smoke.metrics.json results/trace_smoke.trace.json
	$(PYTHON) -m repro campaign bitcount --scale tiny --backend golden \
	    --faults 48 --chunk 8 --seed 42 \
	    --out results/trace_smoke.jsonl & \
	$(PYTHON) -m repro top results/trace_smoke.jsonl --timeout 120; \
	status=$$?; wait; test $$status -eq 0
	$(PYTHON) -m repro stats results/trace_smoke.jsonl \
	    --export-trace results/trace_smoke.trace.json
	$(PYTHON) -m repro stats diff results/trace_smoke.metrics.json \
	    results/trace_smoke.metrics.json --gate 5

# service-smoke is the CI face of the repro.service tier, driven
# entirely through subprocesses: a `repro serve` instance takes two
# overlapping campaign submissions from separate tenants (the second
# must lease the first's cached checkpoint store — cache hit
# asserted from `stats`), is killed with SIGKILL mid-job, and a
# restarted server over the same state dir resumes both jobs from the
# journal to results byte-identical to an uninterrupted serial
# `repro campaign` run.  See docs/SERVICE.md.
service-smoke:  ## serve -> two tenants -> cache hit -> kill -9 -> resume, byte-identical
	$(PYTHON) -m pytest tests/service/test_smoke_cli.py -q

# examples-smoke runs the two quick examples as a reader would; it fails
# unless the quickstart's clean run still reports an integer cycle count.
examples-smoke:  ## examples/quickstart.py and examples/tamper_detection.py
	out=$$($(PYTHON) examples/quickstart.py) && echo "$$out" && \
	    echo "$$out" | grep -Eq 'in [0-9]+ cycles'
	$(PYTHON) examples/tamper_detection.py

# perfbench-selftest runs the repo benchmark's own tests (a tiny pass of
# every workload, tampered outputs must fail).  The benchmark's probes
# patch named seams of the program, so a refactor that removes one fails
# here rather than in a benchmark run.
perfbench-selftest:  ## the repo benchmark's self-test (perfbench/selftest.py)
	$(PYTHON) perfbench/selftest.py

# bench-gate compares every committed BENCH_*.json against the
# PREV_BENCH_*.json stash the benchmark harness leaves behind when it
# overwrites one (benchmarks/conftest.py), failing on any >= BENCH_GATE
# percent regression.  Opt-in rather than CI-wired: wall-clock numbers
# on shared runners are too noisy to gate merges on.
bench-gate:  ## diff fresh BENCH_*.json against PREV_ stashes, gate regressions
	@found=0; \
	for current in results/BENCH_*.json; do \
	    prev="results/PREV_$$(basename $$current)"; \
	    [ -f "$$current" ] && [ -f "$$prev" ] || continue; \
	    found=1; \
	    $(PYTHON) -m repro stats diff "$$prev" "$$current" \
	        --gate $(BENCH_GATE) || exit 1; \
	done; \
	[ $$found -eq 1 ] || echo "bench-gate: no PREV_BENCH_*.json stashes yet (run make bench twice)"

clean:
	rm -rf results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

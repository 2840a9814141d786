GO ?= go

.PHONY: all build vet lint test race bench bench-baseline bench-batch-baseline bench-sim deflake clean

all: build vet test

build:
	$(GO) build ./...

# vet runs the stock go vet plus all six gammavet analyzers repo-wide —
# determinism, costcharge, faultpoint, unitflow, leakcheck, wallclock — each
# over the packages in its analysis.Analyzer Scope (docs/STATIC_ANALYSIS.md).
# Any diagnostic fails the build.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/gammavet ./...

# lint is the historical alias for vet.
lint: vet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the full benchmark suite (every figure/table/ablation plus the
# workload engine's mpl sweep, each 3x keeping the fastest), emits the run as
# JSON, and gates it twice:
#
#   - wall-clock against BENCH_batch.json, the batched-engine baseline: may
#     not regress more than BENCH_TOL (40%) after median machine-speed
#     normalization;
#   - simulated metrics (sim-sec, qps, ...) against BENCH_$(BENCH_SEED).json,
#     the pre-batching baseline: must match bit-for-bit. The two baselines
#     share every sim metric — that identity is the batched engine's
#     no-cost-model-drift contract, enforced on every bench run.
BENCH_SEED ?= 1989
BENCH_WALL ?= batch
BENCH_FLAGS = -run '^$$' -bench . -benchtime 2x -count 3 .
# BENCH_TOL is the wall-clock tolerance after machine normalization. On a
# single-core host, scheduler and frequency jitter move individual suites
# 20-40% run to run even when the median is steady, so the gate allows more
# per-benchmark spread than benchcheck's default; the sim-metric gate below
# it stays exact.
BENCH_TOL ?= 0.40
# Benchmarks whose baseline wall time is under BENCH_MIN_WALL ns (20ms) run
# too few instructions per iteration for 2x-iteration timing to mean anything
# on this host; they skip the wall gate but their sim metrics stay exact.
BENCH_MIN_WALL ?= 2e7
bench:
	$(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -emit /tmp/gammajoin-bench-current.json \
		-tolerance $(BENCH_TOL) -min-wall-ns $(BENCH_MIN_WALL) \
		-against BENCH_$(BENCH_WALL).json < /tmp/gammajoin-bench.txt
	$(GO) run ./cmd/benchcheck -sim-only -against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt
	@echo "bench gate: OK"

# bench-baseline regenerates the committed sim baseline on the current
# machine; bench-batch-baseline regenerates the batched-engine wall-clock
# baseline (run it after intentional wall-clock changes — the sim metrics it
# captures must still match BENCH_$(BENCH_SEED).json, which `bench` checks).
bench-baseline:
	$(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -emit BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt

bench-batch-baseline:
	$(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -emit BENCH_$(BENCH_WALL).json \
		-sim-only -against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt

# bench-sim gates only the simulated metrics — the machine-independent,
# must-match-exactly half of the bench gate. A drifted sim metric is a
# correctness change, not a perf regression, so this gate has no tolerance
# and no noise. Reuses the bench run's output when one exists.
bench-sim:
	@test -s /tmp/gammajoin-bench.txt || $(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -sim-only -against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt
	@echo "sim-metrics gate: OK"

# deflake is the flakiness audit: the whole test suite 5x under the race
# detector, TestGolden's pinned gammabench rows included; any run-to-run
# variance fails it.
deflake:
	$(GO) test -count=5 -race ./...

clean:
	$(GO) clean ./...
	rm -f /tmp/gammajoin-bench.txt /tmp/gammajoin-bench-current.json

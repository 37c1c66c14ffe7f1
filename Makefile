# Local development and CI run the exact same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build vet fmt fmt-check vet-reclaim test race stress-hashmap fuzz-smoke bench-smoke bench-diff bench-baseline bench benchmark benchmark-smoke check

all: check

## build: compile every package and binary
build:
	$(GO) build ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## fmt: rewrite sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file is not gofmt-clean
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet-reclaim: the repository's own static-analysis gate. cmd/reclaimvet
## runs six analyzers over every package (tests included) and fails on any
## diagnostic: retirepin (raw scheme retires must be pin-dominated),
## handlepair (every acquired slot handle must reach a release), singlewriter
## (per-thread stat cells stay core.Counter — replaces the old
## hotpathguard_test grep), protectorder (HP protect -> validate -> deref
## ordering), noclock (no wall clock on Controller.Step paths or in
## Step-driven tests) and exporteddoc (the old cmd/doclint, folded in).
## Deliberate exceptions carry reasoned //lint:allow markers, which the
## driver checks too.
vet-reclaim:
	$(GO) run ./cmd/reclaimvet ./...

## test: full test suite
test:
	$(GO) test ./...

## race: test suite under the race detector (short mode, as in CI)
race:
	$(GO) test -race -short ./...

## stress-hashmap: the hash map's bucket-claim, unlink-before-return and
## wait-free-Get tests, repeated under the race detector (contracts: the
## package comment of internal/ds/hashmap)
stress-hashmap:
	$(GO) test -race -count=10 -timeout 10m -run 'Claim|Unlink|StressWaitFreeGet' ./internal/ds/hashmap

## fuzz-smoke: short fuzzing pass over the kvwire frame and request decoders.
## go test accepts one -fuzz target per invocation, so the targets run back to
## back; the anchored patterns keep FuzzDecodeRequest from also matching
## FuzzDecodeRequests (the batch decoder, which additionally cross-checks
## itself against the sequential ReadFrame+DecodeRequest path). The committed
## seed corpora plus a few seconds of mutation per target catch frame-parsing
## regressions without turning CI into a fuzz farm.
fuzz-smoke:
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=5s
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=5s
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzDecodeRequests$$' -fuzztime=5s

## bench-smoke: tiny experiment run, JSON report to bench-smoke.json (CI artifact).
## Covers the hash map panels (experiment 4), the async-reclamation sweep
## (experiment 6), the hot-path per-op microcost probes (experiment 7), the
## goroutine-churn sweep over the slot registry (experiment 8), the KV
## service end-to-end run over loopback TCP (experiment 9: mixed read/write
## load from 4 connections, p50/p99/p999 request latencies, hard-failing if
## any reclaiming scheme exits with Retired != Freed) and the self-tuning
## runtime comparison (experiment 10: adaptive vs static-optimal vs
## static-worst on a phase-changing workload, controller trajectories as
## JSON columns, hard-failing on Retired != Freed with the controller
## enabled) and the fault-injection experiment (11: per-scheme
## bounded/unbounded unreclaimed growth under an injected stalled thread,
## plus a chaos-mode service panel whose rows carry the shed/retry
## counters; fault rows are excluded from the bench-diff throughput gate
## but rendered as their own tables) and the pipelined-service experiment
## (12: the service shapes repeated at pipeline depths 1/8/64 — the load
## generator keeps a window in flight, the server batch-executes it — with
## the depth-1 lockstep baseline making the batching amortisation visible
## and an allocs_per_op column tracking the request path's zero-alloc steady
## state) in one merged report.
## The thread sweep is pinned so the row set matches BENCH_baseline.json on
## any machine (the async reclaimer-count and churn sweeps are likewise
## fixed, not machine-derived). The sweep runs 3 times and every cell keeps
## its best-throughput run (-repeat 3): single 75ms trials swing far
## outside the bench-diff gate's 30% margin on a loaded or single-core CI
## machine, and its slow episodes outlast back-to-back repeats of one cell
## but not the full sweep between sweep-level repeats — so the best-of-3
## envelope is stable, suppressing the downward outliers the gate acts on.
## Every smoke report is also archived under bench-history/ with a UTC
## timestamp, so any two runs can be compared later (benchdiff takes two
## positional artifact paths).
bench-smoke: build
	$(GO) run ./cmd/reclaimbench -experiment hashmap,async,hotpath,churn,service,adaptive,faults,pipeline -quick -threads 4 -duration 75ms -repeat 3 -json > bench-smoke.json
	@grep -q '"row_count"' bench-smoke.json
	@mkdir -p bench-history
	@cp bench-smoke.json "bench-history/$$(date -u +%Y%m%dT%H%M%SZ).json"
	@echo "wrote bench-smoke.json (archived under bench-history/)"

## bench-diff: compare the fresh bench-smoke artifact against the committed
## baseline, failing on >30% (median-normalised) throughput regressions.
bench-diff: bench-smoke
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current bench-smoke.json

## bench-baseline: refresh the committed baseline from a fresh smoke run
bench-baseline: bench-smoke
	cp bench-smoke.json BENCH_baseline.json
	@echo "updated BENCH_baseline.json; commit it"

## bench: the full benchmark suite through the testing.B interface
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

## benchmark: the repository's benchmark (BENCHMARK.json; benchmark/README.md
## defines every workload and metric). Needs >= 2 CPUs.
benchmark:
	$(GO) run ./benchmark -seed 1

## benchmark-smoke: the benchmark's own tests plus the shortest run of one
## workload, so CI notices when a change breaks what the driver runs
benchmark-smoke:
	$(GO) test ./benchmark/
	$(GO) run ./benchmark -workload map_read_mostly -seed 1 -seconds 2 -trace 0

## check: everything CI checks, in one shot
check: build vet fmt-check vet-reclaim test race

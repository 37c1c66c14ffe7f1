# Local development and CI run the exact same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build vet fmt fmt-check vet-reclaim test race stress-hashmap stress-kvservice fuzz-smoke bench-smoke bench-diff bench-baseline bench benchmark benchmark-smoke check

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

## vet-reclaim: cmd/reclaimvet's five reclamation-contract analyzers over every
## package, tests included; fails on any diagnostic (docs/ARCHITECTURE.md,
## "Statically enforced invariants")
vet-reclaim:
	$(GO) run ./cmd/reclaimvet ./...

## test: full test suite, then the scheme packages five times over: they run
## in under a second each and share internal/reclaim/epoch, so one flake there
## is four
test:
	$(GO) test ./...
	$(GO) test -count=5 ./internal/reclaim/...

## race: test suite under the race detector (short mode, as in CI)
race:
	$(GO) test -race -short ./...

## stress-hashmap: the hash map's bucket-claim, unlink-before-return and
## wait-free-Get tests, repeated under the race detector (contracts: the
## package comment of internal/ds/hashmap)
stress-hashmap:
	$(GO) test -race -count=10 -timeout 10m -run 'Claim|Unlink|StressWaitFreeGet' ./internal/ds/hashmap

## stress-kvservice: the service's shared-key value-integrity stress (stored
## bytes recycled with their nodes), repeated under the race detector
stress-kvservice:
	$(GO) test -race -count=10 -timeout 10m -run 'StressValueIntegrity' ./internal/kvservice

## fuzz-smoke: 5 s of fuzzing per target — the kvwire frame and request
## decoders, and the hash map's key <-> split-order key round trip. go test
## takes one -fuzz target per run, and the anchors keep FuzzDecodeRequest from
## also matching FuzzDecodeRequests.
fuzz-smoke:
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=5s
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=5s
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzDecodeRequests$$' -fuzztime=5s
	$(GO) test ./internal/ds/hashmap -run='^$$' -fuzz='^FuzzSoKeyRoundTrip$$' -fuzztime=5s

## bench-smoke: the cmd/reclaimbench sweep's smoke run, best of 3 per cell, JSON to
## bench-smoke.json (CI artifact, archived under bench-history/); the experiment
## list is `go run ./cmd/reclaimbench -h` (-experiment)
bench-smoke: build
	$(GO) run ./cmd/reclaimbench -experiment hashmap,hotpath,churn,service,faults,pipeline -quick -threads 4 -duration 75ms -repeat 3 -json > bench-smoke.json
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

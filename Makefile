# Local development and CI run the exact same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build vet fmt fmt-check vet-reclaim test race stress-hashmap stress-kvservice fuzz-smoke benchmark benchmark-smoke check

## all: same as check
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

## vet-reclaim: the reclamation-contract analyzers over every package, tests included (docs/ARCHITECTURE.md)
vet-reclaim:
	$(GO) run ./cmd/reclaimvet ./...

## test: full test suite, then the epoch-sharing scheme packages and the bags and pool they free through five times over
test:
	$(GO) test ./...
	$(GO) test -count=5 ./internal/reclaim/... ./internal/pool ./internal/blockbag

## race: test suite under the race detector (short mode, as in CI)
race:
	$(GO) test -race -short ./...

## stress-hashmap: the hash map's bucket-claim, unlink, overwrite and wait-free-Get tests under -race
stress-hashmap:
	$(GO) test -race -count=10 -timeout 10m -run 'Claim|Unlink|Overwrite|StressWaitFreeGet' ./internal/ds/hashmap

## stress-kvservice: the service's shared-key value-integrity stress under -race
stress-kvservice:
	$(GO) test -race -count=10 -timeout 10m -run 'StressValueIntegrity' ./internal/kvservice

## fuzz-smoke: 5 s per fuzz target (go test takes one anchored -fuzz pattern per run)
fuzz-smoke:
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=5s
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=5s
	$(GO) test ./internal/kvwire -run='^$$' -fuzz='^FuzzDecodeRequests$$' -fuzztime=5s
	$(GO) test ./internal/ds/hashmap -run='^$$' -fuzz='^FuzzSoKeyRoundTrip$$' -fuzztime=5s

## benchmark: the repository's benchmark, every workload (benchmark/README.md; needs >= 2 CPUs)
benchmark:
	$(GO) run ./benchmark -seed 1

## benchmark-smoke: the benchmark's own tests plus one 2-second workload
benchmark-smoke:
	$(GO) test ./benchmark/
	$(GO) run ./benchmark -workload map_read_mostly -seed 1 -seconds 2 -trace 0

## check: everything CI checks, in one shot
check: build vet fmt-check vet-reclaim test race

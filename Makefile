# ARGO build/verify gates. `make check` is the CI entry point.

GO ?= go

.PHONY: all check fmt vet build test race bench benchsmoke profile passes fuzz cover soak clean

all: check

check: fmt vet build race benchsmoke soak

# gofmt must produce no output (no unformatted files).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark run; writes the machine-readable report to
# BENCH_PR10.json, with BENCH_PR9.json (kept in-tree) as the baseline so
# the per-benchmark delta of this round (the sharded cluster tier:
# hash-ring placement, coordinator forwarding, batch) is recorded on
# top of the previous round's numbers.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . | \
		$(GO) run ./cmd/benchjson -baseline BENCH_PR9.json -o BENCH_PR10.json

# CPU/heap profiles of the two simulator-bound experiment benchmarks,
# written under profiles/ (gitignored) for `go tool pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run=^$$ -bench='BenchmarkE2Tightness$$' -benchtime=10x \
		-cpuprofile profiles/e2.cpu.prof -memprofile profiles/e2.mem.prof .
	$(GO) test -run=^$$ -bench='BenchmarkE5NoC$$' -benchtime=10x \
		-cpuprofile profiles/e5.cpu.prof -memprofile profiles/e5.mem.prof .

# One-iteration smoke run so `make check` catches bitrot in the
# benchmarks without paying for a full measurement, plus one iteration
# of the cluster scale-out benchmark (rps per topology and their ratio).
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='^BenchmarkClusterScaleOut$$' -benchtime=1x -run=^$$ ./internal/service

# Native-fuzzing smoke of every fuzz target: seed corpus plus FUZZTIME
# of random exploration per target (go's fuzz engine takes one target
# per invocation). CI runs this as the fuzz-smoke job; raise FUZZTIME
# locally for a real exploration session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz='^FuzzParseSCIL$$' -fuzztime=$(FUZZTIME) ./internal/scil
	$(GO) test -run=^$$ -fuzz='^FuzzADLPlatform$$' -fuzztime=$(FUZZTIME) ./internal/adl
	$(GO) test -run=^$$ -fuzz='^FuzzSessionEdit$$' -fuzztime=$(FUZZTIME) ./internal/session
	$(GO) test -run=^$$ -fuzz='^FuzzVMExec$$' -fuzztime=$(FUZZTIME) ./internal/ir/vm
	$(GO) test -run=^$$ -fuzz='^FuzzSnapshotRemap$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzSlice$$' -fuzztime=$(FUZZTIME) ./internal/ir/slice
	$(GO) test -run=^$$ -fuzz='^FuzzHashRing$$' -fuzztime=$(FUZZTIME) ./internal/cluster

# Soak smokes, under the race detector: session churn (many sessions,
# randomized edits, eviction/TTL, differential verification) and the
# cluster soak (a cache-miss workload against one constrained replica
# and against a 2-replica coordinator: every request served, none shed
# or failed). The throughput ratio between the two topologies depends on
# the host's idle cores, so it is not asserted here; BenchmarkClusterScaleOut
# reports it (see benchsmoke).
soak:
	$(GO) test -race -run='^TestSessionSoak$$' -count=1 ./internal/session
	$(GO) test -race -run='^TestClusterSoakThroughput$$' -count=1 -v ./internal/service

# Statement coverage over the full module; prints the total and leaves
# cover.out (gitignored) for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Print the registered pass pipeline (name, artifacts, cacheability,
# feedback-loop membership).
passes:
	$(GO) run ./cmd/argocc -passes

clean:
	$(GO) clean ./...

# ARGO build/verify gates. `make check` is the CI entry point.

GO ?= go

.PHONY: all check fmt vet build test race bench benchsmoke perfbench-check profile workload-cover passes fuzz cover soak clean

all: check

check: fmt vet build race benchsmoke soak perfbench-check

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

# Full micro-benchmark run, printed to stdout. Single samples are for
# looking, not for claims: performance claims go through perfbench/
# (multi-run, end to end, per layer).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# CPU/heap profiles of the two simulator-bound experiment benchmarks,
# a CPU profile of fresh-input simulation (mostly VM dispatch), and CPU
# and allocation profiles of the never-seen compile mix and of argod's
# result-cache hit path, written under profiles/ (gitignored) for
# `go tool pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run=^$$ -bench='BenchmarkE2Tightness$$' -benchtime=10x \
		-cpuprofile profiles/e2.cpu.prof -memprofile profiles/e2.mem.prof .
	$(GO) test -run=^$$ -bench='BenchmarkE5NoC$$' -benchtime=10x \
		-cpuprofile profiles/e5.cpu.prof -memprofile profiles/e5.mem.prof .
	$(GO) test -run=^$$ -bench='BenchmarkSimulate$$' -benchtime=300x \
		-cpuprofile profiles/simulate.cpu.prof .
	$(GO) test -run=^$$ -bench='BenchmarkCompileNeverSeenMix$$' -benchtime=2000x \
		-cpuprofile profiles/neverseen-mix.cpu.prof -memprofile profiles/neverseen-mix.mem.prof .
	$(GO) test -run=^$$ -bench='BenchmarkCompileHit$$' -benchtime=5000x -o profiles/service.test \
		-cpuprofile profiles/compile-hit.cpu.prof -memprofile profiles/compile-hit.mem.prof ./internal/service

# What the benchmark's traffic runs: a count-mode coverage build of
# argod serves each perfbench workload once at --trace 1, seed 1. Only
# argod's untraced half is counted, set-up plus the 1,000 timed
# requests: the traced half replays inside perfbench's own process.
# Per-workload and merged reports (`go tool covdata textfmt` as
# cover.out, `func` as func.txt) go under profiles/workload-cover/.
WCOVER := profiles/workload-cover
workload-cover:
	rm -rf $(WCOVER)
	mkdir -p $(WCOVER)/bin
	$(GO) build -cover -covermode=count -coverpkg=argo/... -o $(WCOVER)/bin/argod ./cmd/argod
	cd perfbench && $(GO) build -o ../$(WCOVER)/bin/perfbench .
	set -e; dirs=""; for w in compile-cold compile-warm simulate whatif; do \
		mkdir -p $(WCOVER)/$$w/data; \
		GOCOVERDIR=$(CURDIR)/$(WCOVER)/$$w/data $(WCOVER)/bin/perfbench -argod $(WCOVER)/bin/argod \
			-out $(WCOVER)/$$w -workload $$w -seed 1 -trace 1 > $(WCOVER)/$$w/report.jsonl; \
		$(GO) tool covdata textfmt -i=$(WCOVER)/$$w/data -o $(WCOVER)/$$w/cover.out; \
		$(GO) tool covdata func -i=$(WCOVER)/$$w/data > $(WCOVER)/$$w/func.txt; \
		dirs="$$dirs,$(WCOVER)/$$w/data"; \
	done; \
	mkdir -p $(WCOVER)/merged; \
	$(GO) tool covdata textfmt -i=$${dirs#,} -o $(WCOVER)/merged/cover.out; \
	$(GO) tool covdata func -i=$${dirs#,} > $(WCOVER)/merged/func.txt
	tail -n 1 $(WCOVER)/merged/func.txt

# One-iteration smoke run so `make check` catches bitrot in the
# benchmarks without paying for a full measurement, plus one iteration
# of the cluster scale-out benchmark (rps per topology and their ratio)
# and of the compile-cache hit path.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='^(BenchmarkClusterScaleOut|BenchmarkCompileHit)$$' -benchtime=1x -run=^$$ ./internal/service

# perfbench/ is its own module (replace argo => ../), so the root vet,
# build and test skip it. Vet and test it here, so a rename of an API
# the benchmark calls fails the check instead of the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Native-fuzzing smoke of every fuzz target: seed corpus plus FUZZTIME
# of random exploration per target (go's fuzz engine takes one target
# per invocation). CI runs this as the fuzz-smoke job; raise FUZZTIME
# locally for a real exploration session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz='^FuzzParseSCIL$$' -fuzztime=$(FUZZTIME) ./internal/scil
	$(GO) test -run=^$$ -fuzz='^FuzzADLPlatform$$' -fuzztime=$(FUZZTIME) ./internal/adl
	$(GO) test -run=^$$ -fuzz='^FuzzSharedPort$$' -fuzztime=$(FUZZTIME) ./internal/adl
	$(GO) test -run=^$$ -fuzz='^FuzzSessionEdit$$' -fuzztime=$(FUZZTIME) ./internal/session
	$(GO) test -run=^$$ -fuzz='^FuzzVMExec$$' -fuzztime=$(FUZZTIME) ./internal/ir/vm
	$(GO) test -run=^$$ -fuzz='^FuzzSnapshotRemap$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzSlice$$' -fuzztime=$(FUZZTIME) ./internal/ir/slice
	$(GO) test -run=^$$ -fuzz='^FuzzRegionSummaries$$' -fuzztime=$(FUZZTIME) ./internal/ir
	$(GO) test -run=^$$ -fuzz='^FuzzHashRing$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run=^$$ -fuzz='^FuzzSolveMIP$$' -fuzztime=$(FUZZTIME) ./internal/lp

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

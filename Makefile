# Developer entry points. CI runs the same targets; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race soak bench cover fmt vet lint soarlint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent scheduler makes race detection mandatory.
race:
	$(GO) test -race ./...

# The robustness acceptance tests, all under the race detector (CI's
# race job runs them): churning tenants under checkpoint/kill/restore
# cycles, the cluster protocol under injected transport faults, and
# shard failover under churn (TestFailoverSoak, the HA acceptance test).
soak:
	$(GO) test -race -count=1 -run '^TestChaosSoak$$' -v ./internal/sched
	$(GO) test -race -count=1 -run 'Chaos|Fallback|Retry|FrameTimeout' ./internal/cluster
	$(GO) test -race -count=1 -run '^TestFailoverSoak$$' -v ./internal/ha

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Same pinned staticcheck CI runs (network required on first run),
# then the in-repo analyzer suite (pure stdlib, no network). soarlint
# proves the //soar: annotation contracts: immutable, hotpath,
# lockdiscipline, capclamp — see DESIGN.md "Statically-checked
# invariants".
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
	$(GO) run ./cmd/soarlint ./...

# Just the in-repo suite: fast, offline, run it on every save.
soarlint:
	$(GO) run ./cmd/soarlint ./...

# Bench trajectory: run the key benchmarks warm (-benchtime 300ms, five
# counts) and *append* one record per file — commit, time, cpu and each
# benchmark's min-of-counts ns/op (cmd/benchgate -record) — so the
# committed files accumulate a comparable history instead of holding one
# cold sample. BENCH_sched.json tracks the serving layer (scheduler,
# re-packer, checkpoint save/restore against tenant count);
# BENCH_core.json tracks the solver hot path (plain, memoized, sparse
# and incremental Gather). A few minutes on two cores. Records compare
# only when their cpu strings match: across hosts the spread is the
# machine's, not the code's.
BENCHFLAGS = -run '^$$' -benchtime 300ms -count 5
COMMIT = $(shell git rev-parse --short HEAD)$(shell git diff --quiet HEAD || echo -dirty)

bench:
	$(GO) test $(BENCHFLAGS) -bench 'BenchmarkScheduler|BenchmarkRepackRound|BenchmarkCheckpoint|BenchmarkRestore' ./internal/sched \
		| $(GO) run ./cmd/benchgate -record BENCH_sched.json -commit $(COMMIT)
	$(GO) test $(BENCHFLAGS) -bench 'BenchmarkGather$$|BenchmarkGatherMemo$$|BenchmarkGatherSparse|BenchmarkIncremental' . \
		| $(GO) run ./cmd/benchgate -record BENCH_core.json -commit $(COMMIT)

# Coverage gate (CI's coverage job): the solver core must stay at or
# above 85% statement coverage and the module overall at or above 70%.
# cover.html is the browsable annotated source. The core floor uses a
# dedicated profile so cross-package test coverage cannot inflate it.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) test -coverprofile=cover_core.out ./internal/core
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	core=$$($(GO) tool cover -func=cover_core.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "coverage: module $$total% (floor 70%), internal/core $$core% (floor 85%)"; \
	awk -v t="$$total" -v c="$$core" 'BEGIN { \
		bad = 0; \
		if (t+0 < 70) { print "FAIL: module coverage " t "% below the 70% floor"; bad = 1 } \
		if (c+0 < 85) { print "FAIL: internal/core coverage " c "% below the 85% floor"; bad = 1 } \
		exit bad }'

clean:
	rm -f cover.out cover_core.out cover.html

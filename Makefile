GO ?= go

# Recipes pipe `go test -bench` output through benchjson; pipefail makes
# a benchmark failure fail the target instead of emitting partial JSON.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test test-386 race lint bench bench-short bench-gate fuzz-short chaos-short

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-386 runs the suite on a 32-bit target. The engine's counters are
# plain int64 fields bumped through sync/atomic, which panics on 32-bit
# platforms unless the field is 8-byte aligned; this keeps that layout
# rule checked (an amd64 host runs 386 test binaries natively).
test-386:
	GOARCH=386 $(GO) test ./...

# maxcover (CoverageOf/MemoryBytes run concurrently with each other) and
# graph (shared immutable CSR read from every worker) joined the race
# matrix alongside the original four concurrent hot paths; the pluggable
# model pools (lt, sir, kthresh) shard their sampling across workers
# through the shared profile-pool kernel, rrset shards ExtendContext
# into per-worker flat buffers, and shard is the fan-out every one of
# those loops runs on.
race:
	$(GO) test -race ./internal/prr ./internal/diffusion ./internal/engine ./internal/lt ./internal/maxcover ./internal/graph ./internal/model/profile ./internal/model/sir ./internal/model/kthresh ./internal/rrset ./internal/shard

# lint runs the project's own invariant analyzers (cmd/kboostvet: see
# internal/analysis) plus staticcheck and govulncheck when they are on
# PATH. CI installs pinned versions; locally the extra tools are
# optional so the target works on a bare toolchain.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/kboostvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./... ; \
	else \
	  echo "lint: staticcheck not installed, skipping (CI runs it pinned)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
	  govulncheck ./... ; \
	else \
	  echo "lint: govulncheck not installed, skipping (CI runs it pinned)"; \
	fi

# chaos-short runs the fault-injection property suite under the race
# detector: injected latency/errors/panics at the pool-build shard
# boundary must never poison the pool cache, retries must be
# bit-identical to uninterrupted runs, and the HTTP layer must shed,
# degrade, and drain correctly under pressure (internal/faults,
# chaos_test.go, server_robustness_test.go).
chaos-short:
	$(GO) test -race -run 'TestChaos|TestHealthAndReady|TestColdOverflow|TestEstimateDegrades|TestEstimateSheds|TestShardPanic|TestClientDisconnect' -v ./internal/engine

# fuzz-short smoke-fuzzes the graph codecs (the untrusted-input surface
# of the upload and PATCH endpoints) and the application of a decoded
# delta to a graph; go only accepts one fuzz target per run.
FUZZTIME ?= 20s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeDelta$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/graph

# bench runs the selection- and cold-path benchmarks (warm SelectDelta
# vs the naive reference, incremental Extend, cold pool builds, Eval
# sweeps, warm Engine queries, graph-patch repair vs cold rebuild — for
# both the PRR and boosted-LT pool families — plus the tiered estimate
# serves: closed-form tier 0, small-sample tier 1, and the warm tier-2
# baseline they undercut; and every other gated benchmark: the greedy
# candidate pool, ApplyDelta and PairOnce) with -benchmem, and emits
# machine-readable BENCH_select.json (ns/op, bytes_per_op,
# allocs_per_op, stamped with the host's OS, architecture, CPU model,
# nproc, GOMAXPROCS and Go version) alongside the usual text output: a
# record of this host's numbers, not a baseline anything gates against
# (bench-gate runs both trees itself).
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkSelectDeltaWarm|BenchmarkSelectCoverWarm|BenchmarkExtendIncremental|BenchmarkPoolBuildCold|BenchmarkPRREval' -benchmem -count=3 ./internal/prr && \
	  $(GO) test -run '^$$' -bench 'BenchmarkLTSelectWarm|BenchmarkLTEstimateWarm' -benchmem -count=3 ./internal/lt && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSIRSelectWarm|BenchmarkSIREstimateWarm' -benchmem -count=3 ./internal/model/sir && \
	  $(GO) test -run '^$$' -bench 'BenchmarkKThreshSelectWarm|BenchmarkKThreshEstimateWarm' -benchmem -count=3 ./internal/model/kthresh && \
	  $(GO) test -run '^$$' -bench 'BenchmarkEstimateTier' -benchmem -count=3 ./internal/engine && \
	  $(GO) test -run '^$$' -bench 'BenchmarkEngineWarmBoost|BenchmarkLTWarmBoost|BenchmarkLTPoolExtend|BenchmarkGraphPatch' -benchmem -count=3 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkCandidates' -benchmem -count=3 ./internal/model/profile && \
	  $(GO) test -run '^$$' -bench 'BenchmarkApplyDelta' -benchmem -count=3 ./internal/graph && \
	  $(GO) test -run '^$$' -bench 'BenchmarkPairOnce' -benchmem -count=3 ./internal/diffusion ; } | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_select.json
	@echo "wrote BENCH_select.json"

# bench-short is the CI smoke variant: tiny graphs, one iteration each,
# just proving the benchmarks still build and run.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkSelectDeltaWarm|BenchmarkSelectCoverWarm|BenchmarkExtendIncremental|BenchmarkPoolBuildCold|BenchmarkPRREval' -benchmem -benchtime 1x -short -count=1 ./internal/prr
	$(GO) test -run '^$$' -bench 'BenchmarkLTSelectWarm|BenchmarkLTEstimateWarm' -benchmem -benchtime 1x -short -count=1 ./internal/lt
	$(GO) test -run '^$$' -bench 'BenchmarkSIRSelectWarm|BenchmarkSIREstimateWarm' -benchmem -benchtime 1x -short -count=1 ./internal/model/sir
	$(GO) test -run '^$$' -bench 'BenchmarkKThreshSelectWarm|BenchmarkKThreshEstimateWarm' -benchmem -benchtime 1x -short -count=1 ./internal/model/kthresh
	$(GO) test -run '^$$' -bench 'BenchmarkEstimateTier' -benchmem -benchtime 1x -short -count=1 ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkEngineWarmBoost|BenchmarkLTWarmBoost|BenchmarkLTPoolExtend|BenchmarkGraphPatch' -benchmem -benchtime 1x -short -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkCandidates' -benchmem -benchtime 1x -short -count=1 ./internal/model/profile
	$(GO) test -run '^$$' -bench 'BenchmarkApplyDelta' -benchmem -benchtime 1x -short -count=1 ./internal/graph
	$(GO) test -run '^$$' -bench 'BenchmarkPairOnce' -benchmem -benchtime 1x -short -count=1 ./internal/diffusion

# bench-gate is the paired same-host gate: it exports BASE (default:
# the merge-base with main, else with origin/main; it is an error when
# neither resolves) with git archive, compiles the gated benchmarks in
# both trees, runs them alternately (A/B, B/A, ...) for 5 rounds on
# this host, each round keeping the fastest of three runs, and fails
# when the median paired ns/op ratio or the median allocs/op of any
# gated benchmark regresses by more than 25% (scripts/bench-gate.sh,
# cmd/benchjson -paired). A BASE that is HEAD with a clean working
# tree is refused unless spelled BASE=HEAD, the gate's self-test.
# Pairing makes the gate host-free: both trees run on the same machine
# at the same GOMAXPROCS, so hardware and shard-count skew cancel.
# Gated set: the warm selection/estimate paths (the Δ̂ and μ̂ greedies
# on a built PRR pool among them; the *Short variants
# exist so every gated benchmark completes >= 20 iterations), the
# graph-patch repair path, the tiered estimate serves, and the two
# kernels of a PATCH-then-boost cycle: the greedy candidate pool and
# ApplyDelta; and PairOnce, the coupled IC world behind every ic
# estimate.
BASE ?= $(shell git merge-base HEAD main 2>/dev/null || git merge-base HEAD origin/main 2>/dev/null)
GATED := \
	./internal/prr='BenchmarkSelectDeltaWarm|BenchmarkSelectCoverWarm' \
	./internal/lt='BenchmarkLTSelectWarmShort|BenchmarkLTEstimateWarmShort' \
	./internal/model/sir='BenchmarkSIRSelectWarm|BenchmarkSIREstimateWarm' \
	./internal/model/kthresh='BenchmarkKThreshSelectWarm|BenchmarkKThreshEstimateWarm' \
	./internal/engine='BenchmarkEstimateTier' \
	.='BenchmarkEngineWarmBoost|BenchmarkLTWarmBoostShort|BenchmarkGraphPatchRepair' \
	./internal/model/profile='BenchmarkCandidates' \
	./internal/graph='BenchmarkApplyDelta' \
	./internal/diffusion='BenchmarkPairOnce'

bench-gate:
	@test -n '$(BASE)' || { echo 'bench-gate: no merge-base with main or origin/main; pass BASE=<rev>' >&2; exit 2; }
	GO='$(GO)' bash scripts/bench-gate.sh '$(BASE)' $(GATED)

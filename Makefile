GO ?= go

.PHONY: check vet build test race deflake loc check-benchmark examples chaos chaos-flow chaos-spill chaos-adaptive bench ab fuzz-dsl fuzz-segment fuzz-wire

check: vet build race check-benchmark

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# deflake reruns the tests whose failures were timing, not logic: the spill
# test that listed its directory inside the spiller's stillborn-segment
# window, the striped admission race whose occupancy check could catch P
# producers' optimistic byte reservations above the cap, the adaptive
# demos whose controller used to sample boot-time dial latency, the Fig. 3
# shape test that judged a 5-read mean, and the restart whose checker hooks
# went on after the node was already listening. A failure here is a
# returning flake, not noise.
deflake:
	$(GO) test -count=20 -run 'TestSpillTruncate$$' ./internal/transport
	$(GO) test -race -count=200 -run 'TestStripedFlowBlockedAppendRace$$' ./internal/transport
	$(GO) test -count=5 -run 'TestAdaptiveDemo' ./internal/chaos
	$(GO) test -count=20 -run 'TestFig3ReadTracksSecondFastestMember$$' ./internal/bench
	$(GO) test -race -count=20 -run 'TestRestartAttachesBeforeDelivery$$' ./internal/chaos

# loc prints the three baselines a simplicity change is judged against: the
# non-test Go line count outside benchmark/, the number of independently
# settable values reachable from stabilizer.Config, and the number of
# exported methods on Node (both counted by reflection, in
# TestReadmeListsEveryConfigField and TestNodeSurfaceDoesNotGrowUnnoticed).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -path './.ab/*' | xargs cat | wc -l
	@$(GO) test -count=1 -v -run 'TestReadmeListsEveryConfigField$$|TestNodeSurfaceDoesNotGrowUnnoticed$$' . | grep -o 'config fields: .*\|node methods: .*'

# check-benchmark vets and tests benchmark/, a module of its own that the
# root's ./... never reaches: its layer probes import internal/ packages and
# read metrics by name, so a rename there has to fail here, not later in the
# benchmark pipeline. -short skips the smoke run.
check-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# examples builds every runnable program under examples/ — they are the
# documented entry points, so a facade change that breaks one fails here.
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

# chaos runs the full-horizon fault-injection soak (the default `go test`
# run only gets the -short bounded variant). STABILIZER_CHAOS_SEED=<n> re-runs
# the same fault schedule: the seed pins faults, jitter and backoff; goroutine
# and timer interleaving is the host's.
chaos:
	STABILIZER_CHAOS_FULL=1 $(GO) test -v -run TestChaosSoak ./internal/chaos

# chaos-flow is the bounded-memory variant: the same fault soak with
# send-log caps, blocking admission, and stall detection engaged, plus the
# end-to-end FlowDemo (blackholed peer, 64 KiB cap, reclaim fallback).
# The seed works the same way: STABILIZER_CHAOS_SEED=<n> make chaos-flow.
chaos-flow:
	STABILIZER_CHAOS_FULL=1 $(GO) test -v -run 'TestChaosSoakFlow|TestFlowDemo' ./internal/chaos

# chaos-spill is invariant 9: the spill-tier soak — a backlog-driven
# partition ("day-long region outage" measured in bytes) against spilling
# send logs, requiring bounded memory while the backlog grows past 1 GiB
# on disk and a gap-free, byte-identical post-heal drain — plus the seeded
# crash-schedule harness (crash mid-spill, crash mid-read-back, disk-write
# faults) and the end-to-end reconnect drain, all under the race detector.
# CI runs the same tests -short; STABILIZER_CHAOS_SEED=<n> pins the schedule.
chaos-spill:
	STABILIZER_CHAOS_FULL=1 $(GO) test -race -v -run 'TestChaosSoakSpill' ./internal/chaos
	STABILIZER_CHAOS_FULL=1 $(GO) test -race -v -run 'TestSpillCrashScheduleGroundTruth|TestSpillEndToEndReconnectDrain' ./internal/transport

# chaos-adaptive is invariant 10: the closed-loop consistency acceptance
# scenario. A seeded blackhole (stall-detector path) and latency spike
# (burn-detector path) each force the SLO controller down its ladder and
# back up after the heal, while sweeps assert guarantee honesty (never
# report a rung stronger than the one installed), hysteresis (one rung per
# step, never faster than MinDwell), and release consistency (every WaitFor
# release re-evaluates under the rung active when it happened). Runs under
# the race detector; STABILIZER_CHAOS_SEED=<n> pins the schedule.
chaos-adaptive:
	STABILIZER_CHAOS_FULL=1 $(GO) test -race -v -run 'TestAdaptiveDemo|TestCheckerAdaptiveFlapDetection' ./internal/chaos

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# ab times the working tree against PARENT on the repository's benchmark:
# PAIRS alternating parent/change pairs and AA parent/parent pairs per
# workload (all of BENCHMARK.json's unless WORKLOADS names some), each on an
# unused seed. It prints the medians, the parent's quartile distance, the
# pairs won and tied, the failed operations, the host's steal and a verdict
# per end-to-end metric, and appends every run to LEDGER.json. The parent is
# exported into .ab/<sha>/; `make ab` refuses to run when benchmark/ or
# BENCHMARK.json differs between PARENT and the working tree.
PAIRS ?= 10
AA ?= 6
WORKLOADS ?=
ab:
	$(GO) run ./cmd/ab -parent '$(PARENT)' -pairs '$(PAIRS)' -aa '$(AA)' -workloads '$(WORKLOADS)'

# fuzz-segment runs the shared segment reader fuzzer: truncated and
# corrupted tails must recover the intact record prefix and stop cleanly —
# the torn-tail contract both the kvstore WAL and the send-log spill tier
# recover through.
fuzz-segment:
	$(GO) test -fuzz=FuzzReaderTail -fuzztime=30s -run=^$$ ./internal/storage/segment

# fuzz-dsl runs the predicate compiler/evaluator fuzzer for a bounded
# session: compile-or-error on arbitrary input, and exact Cells()/
# DependsOn() metadata — the contract the incremental frontier index
# depends on.
fuzz-dsl:
	$(GO) test -fuzz=FuzzCompileEval -fuzztime=30s -run=^$$ ./internal/dsl

# fuzz-wire runs the frame reader fuzzer for a bounded session: under any
# read-cut pattern an arbitrary stream decodes as it does in one read, every
# payload lent from the reused read chunk reading right until the following
# Next — the contract that lets payloads skip the copy.
fuzz-wire:
	$(GO) test -fuzz=FuzzReaderCuts -fuzztime=30s -run=^$$ ./internal/wire

GO ?= go

.PHONY: check vet build test race deflake loc check-benchmark examples chaos chaos-flow chaos-spill chaos-adaptive bench bench-transport bench-transport-short bench-recvrun fuzz-dsl fuzz-segment fuzz-wire

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
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l
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

# bench-transport reruns the data-plane microbenchmarks (wire codec,
# send-log drain, end-to-end stream throughput) and rewrites the "current"
# run in BENCH_transport.json, preserving the recorded pre-batching
# baseline.
bench-transport:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/wire ./internal/transport \
	  | $(GO) run ./cmd/benchjson -update BENCH_transport.json

# bench-transport-short is the CI variant: a quick measured pass over the
# stream-throughput benchmarks, compared against the numbers recorded in
# BENCH_transport.json. Drops under 20% print a non-blocking warning; a
# StreamThroughput regression of 20% or more fails the target.
bench-transport-short:
	$(GO) test -bench='StreamThroughput' -benchmem -benchtime=1s -run=^$$ ./internal/transport \
	  | $(GO) run ./cmd/benchjson -compare BENCH_transport.json

# bench-recvrun measures the receive path per message at run lengths 1 to
# 512 (core's HandleDataRun: recorder update, reports posted on the board,
# one upcall) and the report board alone (advancing and stale reports, at 8
# and 32 nodes), and rewrites the "current" run in BENCH_recvrun.json. The file's baseline is
# the parent commit's per-message HandleData under the same harness, and its
# end_to_end section (paired benchmark/run.sh runs) is carried over.
bench-recvrun:
	$(GO) test -bench='HandleDataRun|QueueAck' -benchmem -run=^$$ ./internal/core ./internal/transport \
	  | $(GO) run ./cmd/benchjson -update BENCH_recvrun.json

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

# Patty — build / test / benchmark entry points.

GO ?= go

.PHONY: all build test race fuzz faults chaos serve-chaos cachechaos fleet netchaos vm bench lint eval study examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz is the differential gate CI runs on every PR: generated
# programs through detect -> transform -> execute against the
# sequential oracle (one VM run checked against the IR's native
# reference), then short native fuzzing bursts. It compares no
# engines: the VM-vs-tree-walker differential is the vm target's.
fuzz:
	$(GO) run ./cmd/patty fuzz -seed 1 -n 50
	$(GO) test ./internal/difftest -run '^$$' -fuzz 'FuzzDifferential$$' -fuzztime 30s
	$(GO) test ./internal/difftest -run '^$$' -fuzz FuzzDifferentialPipeline -fuzztime 30s

# faults is the fault-tolerance gate: the runtime's cancellation /
# panic-isolation / drain property tests under -race, plus a
# fault-injection fuzzing smoke (retry must heal exactly, skip must
# drop exactly the injected items).
faults:
	$(GO) test -race -run 'Fault|Cancel|Drain' ./internal/...
	$(GO) run ./cmd/patty fuzz -faults -n 50

# chaos is the crash-recovery gate: kill-and-restart harnesses under
# -race — a checkpointed `patty tune` process SIGKILLed mid-search and
# a `patty serve` instance SIGKILLed with a job in flight must both
# resume from their snapshots and converge to the same best
# configuration as an uninterrupted run, with zero leaked goroutines;
# plus the supervisor/breaker storm tests, the tuning journal's crash
# shapes, the record-format corruption sweep and durable.Log's crash
# and failed-append tests on the fake filesystem (the journal's too).
# Budgeted well under 60s.
chaos:
	$(GO) test -race -count=1 -timeout 60s \
		-run 'KillRestart|ServeChaos|FuzzCheckpoint|Storm|Breaker|CheckpointResume|JournalCrash|CorruptionEveryOffset|CrashEveryBoundary|FailedAppend' \
		./cmd/patty/ ./internal/jobs/ ./internal/tuning/ ./internal/durable/

# serve-chaos is the durable-serve gate: a `patty serve -store-dir`
# instance SIGKILLed under concurrent multi-tenant traffic must
# recover every acknowledged job exactly once on restart (finished
# jobs restored from the WAL, interrupted searches resumed from their
# journals); the WAL's record format survives a bit-flip/truncation
# sweep at every offset and a crash at every write and fsync boundary
# of the log (CrashEveryBoundary, FailedAppend); and under a 10-client
# hog every tenant must finish jobs with max/min goodput <= 2.0
# (TestServeTenantFairnessUnderSkew), all under -race.
serve-chaos:
	$(GO) test -race -count=1 -timeout 120s \
		-run 'TrafficChaos|StoreRecovery|Quota429|TenantF|DurableCorruption|WALCorruptionEveryOffset|TornTail|CrashEveryBoundary|FailedAppend' \
		./cmd/patty/ ./internal/store/ ./internal/jobs/ ./internal/durable/

# cachechaos is the evaluation-store gate: a `patty serve -cache-dir`
# process SIGKILLed mid-insert under two-tenant duplicate traffic must
# recover the store on restart (torn tail truncated, corrupt segments
# quarantined — never a wrong hit), answer a third tenant's duplicate
# job byte-identically from the store, and converge the resubmitted
# search to the same best as a cache-free run; every comment-perturbed
# duplicate of a served tune job must hit the store
# (TestServeJobMemoizationDuplicateTraffic); plus the record-format
# and segment-recovery corruption sweeps, the log's crash-boundary and
# failed-append tests, the canonical-hash invariance suite, and the
# warm-vs-cold bit-identity gates, all under -race.
cachechaos:
	$(GO) test -race -count=1 -timeout 120s \
		-run 'CacheChaos|WarmCache|DurableCorruption|SegmentCorruption|StoreOpenCorruption|CrashEveryBoundary|FailedAppend|ProgramHash|CacheResume|CacheTable|JobCacheKey|CacheIdentity|ServeJobMemoization' \
		./cmd/patty/ ./internal/evalcache/ ./internal/fleet/ ./internal/report/ ./internal/durable/

# fleet is the distributed-tuning gate: the coordinator/worker suite
# under -race — shard partitioning, lease expiry, work stealing,
# coordinator crash resume, worker cache replay, intake hardening —
# plus the CLI chaos leg that SIGKILLs one of three real `patty
# worker` processes mid-search and requires the merged best to equal
# the uninterrupted local reference, with zero leaked goroutines.
fleet:
	$(GO) test -race -count=1 -timeout 120s ./internal/fleet/
	$(GO) test -race -count=1 -timeout 120s -run 'Fleet|ServeIntakeHardening' ./cmd/patty/

# netchaos is the hostile-network gate: the deterministic wire-fault
# injector's own suite, then a multi-worker search under the pinned
# chaos plan with one byzantine (lying) worker — the coordinator must
# quarantine the liar via seeded cross-checks, survive every injected
# fault class (each observable as a fleet.net.* counter), and still
# produce a result bit-identical to the uninterrupted local run, with
# zero leaked goroutines, all under -race. The satellite suites ride
# along: Retry-After honoring, jitter properties, Content-Length
# mismatch rejection, and the record-format sweep with its decode edge
# cases.
netchaos:
	$(GO) test -race -count=1 -timeout 180s ./internal/netchaos/
	$(GO) test -race -count=1 -timeout 180s \
		-run 'NetChaos|Byzantine|CrossCheck|CostsAgree|PickSample|RetryAfter|ContentLength|Jitter|CheckpointCorrect|DurableCorruption|DecodeWALEdge|FleetTableHostile' \
		./internal/fleet/ ./internal/jobs/ ./internal/store/ ./internal/durable/ ./internal/tuning/ ./internal/report/ ./cmd/patty/

# vm is the bytecode-engine gate and the one that compares the
# engines: the VM must stay bit-identical to the tree walker —
# engine equivalence (AllLoopsDiff in TestEngineAllLoopsSweep, the
# "engine" regression seeds and TestCorpusEngineEquivalence) and
# golden-disassembly suites under -race, a FuzzVMvsTreeWalker burst,
# and a CLI fuzzing smoke (Check and model creation run on the VM, the
# only production engine).
vm:
	$(GO) test -race -count=1 -run 'Engine|CorpusEngineEquivalence|GoldenDisassembly|RegressionSeeds' \
		./internal/interp/ ./internal/difftest/
	$(GO) test ./internal/difftest -run '^$$' -fuzz FuzzVMvsTreeWalker -fuzztime 30s
	$(GO) run ./cmd/patty fuzz -n 50

# lint fails when any file needs gofmt or go vet finds an issue; CI
# runs this on every push (see .github/workflows/ci.yml).
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# bench is CI's bench smoke: every benchmark compiles and runs once
# (no perf gate; -benchmem shows allocations), then the benchmark
# harness, a module of its own that ./... never reaches, is vetted and
# its unit and smoke tests run.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .
	$(GO) test -bench 'BenchmarkEngine' -benchmem -benchtime 1x ./internal/interp/
	$(GO) test -run '^$$' -bench Explore -benchmem -benchtime 1x ./internal/ptest
	$(GO) test -run '^$$' -bench EnrichDynamic -benchmem -benchtime 1x ./internal/model
	$(GO) test -run '^$$' -bench 'BenchmarkCheck$$' -benchtime 25x -benchmem ./internal/difftest
	$(GO) test -run '^$$' -bench FleetTune -benchtime 1x ./internal/fleet
	$(GO) test -run '^$$' -bench ObservedWrap -benchmem -benchtime 1x ./internal/tuning/
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

eval:
	$(GO) run ./cmd/patty eval

study:
	$(GO) run ./cmd/patty study

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videopipeline
	$(GO) run ./examples/indexer
	$(GO) run ./examples/raytrace
	$(GO) run ./examples/faulttolerant

clean:
	rm -rf patty-out

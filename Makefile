GO ?= go

# STATICCHECK_VERSION pins the staticcheck release CI installs; bump it
# deliberately, alongside any new suppressions it requires. The local
# `make lint` runs staticcheck only when a binary is already on PATH
# (the build environment is offline; CI installs the pin itself).
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: build test vet race bench benchsrv benchlock benchengine benchwal locknet lint granulint staticcheck tools verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench regenerates BENCH_model.json, the performance-trajectory file
# (full-length figure sweeps; see DESIGN.md §1.1 for the schema).
bench:
	$(GO) run ./cmd/bench -suite model -out BENCH_model.json

# benchsrv regenerates BENCH_locksrv.json, the lock-service throughput
# report (serial vs pipelined vs batched, 1 vs 16 stripes; see
# docs/LOCKSRV.md).
# Compare a fresh run against the checked-in report with:
#   go run ./cmd/bench -suite locksrv -out /tmp/new.json -compare BENCH_locksrv.json
# which exits nonzero on a >10% throughput regression.
benchsrv:
	$(GO) run ./cmd/bench -suite locksrv -out BENCH_locksrv.json

# benchlock regenerates BENCH_lockmgr.json, the lock-table fast-path
# report (lock-free CAS path vs stripe-locked path; see DESIGN.md).
# The headline comparison carries a 2x acceptance target and the
# multi-granule batch claims 3x, so a regenerate on a machine where the
# fast path has regressed fails.
benchlock:
	$(GO) run ./cmd/bench -suite lockmgr -out BENCH_lockmgr.json

# benchengine regenerates BENCH_engine.json, the executable engine's
# protocol-comparison report (all registered concurrency-control
# protocols on a shared contended workload; see docs/ENGINE.md). The
# conservative fine-vs-coarse comparison carries a 0.5x floor.
benchengine:
	$(GO) run ./cmd/bench -suite engine -out BENCH_engine.json

# benchwal regenerates BENCH_wal.json, the durability report: group
# commit vs a per-commit-sync baseline (the same wal.Log, committers
# serialized) at 1/8/64 committers over a
# fixed-latency sync model (the 8- and 64-committer comparisons carry
# hard 3x floors), plus snapshot-bounded vs full-history recovery on
# real file-backed logs (2x floor). See docs/WAL.md.
benchwal:
	$(GO) run ./cmd/bench -suite wal -out BENCH_wal.json

# locknet is the ISSUE 3 acceptance scenario: 1000 transactions through
# the network lock service behind the fault-injecting transport (drops,
# delays, partial writes); runNet fails unless the drain strands zero
# granules. Runs once against a single server, then once against a
# 3-node partitioned cluster with one node killed mid-run
# (runNetCluster fails unless the takeover happens and the survivors
# drain clean). See docs/LOCKSRV.md.
locknet:
	$(GO) run ./cmd/locksim -net 8 -nettxns 1000 -netfaults -ltot 100
	$(GO) run ./cmd/locksim -net 6 -cluster 3 -nettxns 600 -netfaults -ltot 100

# granulint runs the repo's own invariant analyzers (internal/analysis,
# see docs/ANALYSIS.md) over every package; any unsuppressed finding
# fails the build.
granulint:
	$(GO) run ./cmd/granulint ./...

# staticcheck runs the pinned external linter with the curated check
# set in staticcheck.conf — but only where a binary exists: the
# offline dev image cannot `go install` it, so absence is a skip, not
# a failure. CI installs the pin and therefore always runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs the pinned $(STATICCHECK_VERSION))"; \
	fi

# lint is the static half of the PR gate: granulint, then staticcheck.
lint: granulint staticcheck

# tools installs the pinned external lint tooling (network required).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# verify is the PR gate: the lint suite (granulint invariant analyzers
# plus pinned staticcheck where installed), go vet, the tier-1 command
# itself (build and the plain test suite: the allocation pins on pooled
# paths run only here — under the race detector sync.Pool drops a
# quarter of its Puts, so they skip there by the internal/race build-tag
# constant), the race-enabled
# test suite (which includes the locksrv fault-injection suite in
# internal/locksrv/harden_test.go and the wire-protocol suite in
# proto2_test.go), the lock table again under the race detector at 1, 2
# and 4 Ps (its batch-claim and fast-path claims are multicore claims;
# the default run only ever sees the host's CPU count) and the lock
# service likewise (a parked claim's continuation runs on whichever
# goroutine releases, usually another session's reader), and the
# relational layer, whose hierarchical locks are that same table's, a
# 10s fuzz pass over each of the two parsers that
# face the network (the frame reader and the request-body executor),
# each of the four that face the disk (the WAL record reader, the
# RecoverSet classifier, the log file header and the snapshot decoder)
# and the one that faces a scrape (the /metrics text parser),
# the frozen benchmark module's vet and short tests (benchmark/ is a
# module of its own that root `go test ./...` does not reach, so this
# step is what compiles it against every API change), the lockd
# admin-endpoint smoke test (real lock traffic scraped through
# /metrics and validated as Prometheus text), the faulty network
# lock-service smoke run plus the 3-node cluster kill-one-node
# failover smoke run, and quick benchmark smoke runs, every report of
# which goes to a scratch path (the checked-in BENCH_*.json files are
# full-fidelity only, via `make bench` and its siblings): the model
# suite runs shortened figure sweeps, the lock-service
# suite exercises every connection mode and stripe count end to end, and
# the lockmgr suite is diffed against the checked-in baseline: quick
# vs full reports compare machine-independent speedup ratios, failing
# on a >25% ratio drop or any acceptance target missed (the fast-path
# headline carries a hard 2x floor, the multi-granule batch claim 3x
# and an allocation budget). The engine suite smoke-runs every
# registered concurrency-control protocol end to end and diffs against
# the checked-in BENCH_engine.json (the conservative fine-vs-coarse
# comparison carries a hard 0.5x floor), and the engine balance-
# invariant run exercises one protocol through the locksim CLI. The
# wal suite smoke-runs group commit and recovery and diffs against the
# checked-in BENCH_wal.json (the 8/64-committer group-commit
# comparisons carry hard 3x floors, snapshot recovery a 2x floor), and
# the crash run kills a durable engine at random write/sync/checkpoint
# points under the race detector and fails unless every recovery
# conserves the bank-transfer invariant.
verify: lint
	$(GO) vet ./...
	$(GO) build ./... && $(GO) test ./...
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/lockmgr/
	$(GO) test -race -cpu 1,2,4 ./internal/locksrv/
	$(GO) test -race -cpu 1,2,4 ./internal/relation/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=10s ./internal/locksrv/
	$(GO) test -run '^$$' -fuzz '^FuzzExecuteV2Body$$' -fuzztime=10s ./internal/locksrv/
	$(GO) test -run '^$$' -fuzz '^FuzzReaderNext$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverSet$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLogHeader$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime=10s ./internal/obs/
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) test -race -count=2 -run 'TestAdmin' ./cmd/lockd/
	$(GO) run ./cmd/locksim -net 8 -nettxns 1000 -netfaults -ltot 100
	$(GO) run ./cmd/locksim -net 6 -cluster 3 -nettxns 600 -netfaults -ltot 100
	$(GO) run ./cmd/locksim -engine -protocol wound-wait -dbsize 400 -ltot 40 -ntrans 8
	$(GO) run -race ./cmd/locksim -crash 6 -dbsize 300 -ltot 30 -npros 3 -crashtxns 20
	$(GO) run ./cmd/bench -suite model -quick -out /tmp/BENCH_model.quick.json
	$(GO) run ./cmd/bench -suite locksrv -quick -out /tmp/BENCH_locksrv.quick.json
	$(GO) run ./cmd/bench -suite lockmgr -quick -out /tmp/BENCH_lockmgr.quick.json -compare BENCH_lockmgr.json
	$(GO) run ./cmd/bench -suite engine -quick -out /tmp/BENCH_engine.quick.json -compare BENCH_engine.json
	$(GO) run ./cmd/bench -suite wal -quick -out /tmp/BENCH_wal.quick.json -compare BENCH_wal.json

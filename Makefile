GO ?= go

# STATICCHECK_VERSION pins the staticcheck release CI installs; bump it
# deliberately, alongside any new suppressions it requires. The local
# `make lint` runs staticcheck only when a binary is already on PATH
# (the build environment is offline; CI installs the pin itself).
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: build test vet race bench pairs locknet lint granulint staticcheck tools verify verify-static verify-test verify-fuzz verify-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench regenerates the four checked-in BENCH_*.json reports at full
# fidelity (one schema, DESIGN.md §1.1); run it on an otherwise idle
# machine. A suite whose acceptance floor is missed still writes its
# report: `-compare` in verify-smoke is what enforces the floors. What
# cmd/bench no longer measures — engine, WAL commit and lock-service
# throughput — is benchmark/'s (`bash benchmark/run.sh --workload ...`).
bench:
	$(GO) run ./cmd/bench -suite model
	$(GO) run ./cmd/bench -suite lockmgr
	$(GO) run ./cmd/bench -suite cluster
	$(GO) run ./cmd/bench -suite recovery

# pairs is how a performance claim is measured here: N alternating runs of
# one benchmark/ workload, commit REF against the working tree, each side's
# median and quartiles per end-to-end metric and the pairs won
# (scripts/pairs.sh; needs jq). `make pairs REF=HEAD~1 WORKLOAD=locksrv-spread`
N ?= 10
SEED ?= 1
pairs:
	bash scripts/pairs.sh $(REF) $(WORKLOAD) $(N) $(SEED) $(SECONDS)

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

# verify is the PR gate; ci.yml runs the same four targets, one step each.
verify: verify-static verify-test verify-fuzz verify-smoke

# granulint + pinned staticcheck where installed (lint), then go vet.
verify-static: lint
	$(GO) vet ./...

verify-test:
# tier 1; the allocation pins on pooled paths run only without the race detector
	$(GO) build ./... && $(GO) test ./...
# everything again under the race detector
	$(GO) test -race ./...
# the lock table, the lock service and the relational layer at 1, 2 and 4 Ps: their claims are multicore claims
	$(GO) test -race -cpu 1,2,4 ./internal/lockmgr/
	$(GO) test -race -cpu 1,2,4 ./internal/locksrv/
	$(GO) test -race -cpu 1,2,4 ./internal/relation/
# the age policies' verdicts are the lock table's, made under its latch: multicore claims too
	$(GO) test -race -cpu 1,2,4 -run 'TestWoundWaitVictimStorm|TestBalanceInvariantAllProtocols' ./internal/engine/
# benchmark/ is its own module, which root `go test ./...` does not reach: this compiles it against every API change
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
# the two engine smoke runs again, five times: each must see allocation to report (the retired pooled records keep it visible)
	cd benchmark && $(GO) test -short -count=5 -run 'TestSmoke/engine-(fine|coarse)$$' ./...
# lockd admin endpoint: real lock traffic scraped through /metrics
	$(GO) test -race -count=2 -run 'TestAdmin' ./cmd/lockd/

verify-fuzz:
# 10 s each: the two parsers that face the network (frame reader, request-body executor)
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=10s ./internal/locksrv/
	$(GO) test -run '^$$' -fuzz '^FuzzExecuteV2Body$$' -fuzztime=10s ./internal/locksrv/
# the four that face the disk (WAL record reader, RecoverSet classifier, log file header, snapshot decoder)
	$(GO) test -run '^$$' -fuzz '^FuzzReaderNext$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverSet$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLogHeader$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime=10s ./internal/wal/
# the one that faces a scrape (/metrics text)
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime=10s ./internal/obs/

verify-smoke: locknet
# the two age policies through the engine's balance invariant
	$(GO) run ./cmd/locksim -engine -protocol wound-wait -dbsize 400 -ltot 40 -ntrans 8
	$(GO) run ./cmd/locksim -engine -protocol wait-die -dbsize 400 -ltot 40 -ntrans 8
# a durable engine killed at random write/sync/checkpoint points; every recovery must conserve the invariant
	$(GO) run -race ./cmd/locksim -crash 6 -dbsize 300 -ltot 30 -npros 3 -crashtxns 20
# quick cmd/bench runs into /tmp (the checked-in reports are full-fidelity only, via `make bench`);
# -compare fails on a missed floor (lockmgr batch economy + zero-allocation budget, cluster 1.8x, recovery 2x)
# or a same-run ratio more than 25% under the checked-in one
	$(GO) run ./cmd/bench -suite model -quick -out /tmp/BENCH_model.quick.json
	$(GO) run ./cmd/bench -suite lockmgr -quick -out /tmp/BENCH_lockmgr.quick.json -compare BENCH_lockmgr.json
	$(GO) run ./cmd/bench -suite cluster -quick -out /tmp/BENCH_cluster.quick.json -compare BENCH_cluster.json
	$(GO) run ./cmd/bench -suite recovery -quick -out /tmp/BENCH_recovery.quick.json -compare BENCH_recovery.json

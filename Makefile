GO ?= go

# STATICCHECK_VERSION pins the staticcheck release CI installs; bump it
# deliberately, alongside any new suppressions it requires. The local
# `make lint` runs staticcheck only when a binary is already on PATH
# (the build environment is offline; CI installs the pin itself).
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: build test vet race bench pairs lint granulint staticcheck tools verify verify-static verify-test verify-fuzz verify-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench regenerates the three checked-in BENCH_*.json reports at full
# fidelity (one schema, DESIGN.md §1.1); run it on an otherwise idle
# machine. A suite whose acceptance floor is missed still writes its
# report: `-compare` in verify-smoke is what enforces the floors. What
# cmd/bench does not measure — the simulator, engine, WAL commit and
# lock-service throughput — is benchmark/'s (`bash benchmark/run.sh
# --workload ...`); the package benchmarks time the simulator's event
# loop and figure sweeps (`go test -run '^$$' -bench . ./...`).
bench:
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

# granulint + pinned staticcheck where installed (lint), go vet, then
# gofmt: any Go file it lists (the build cache under .bench_build/ aside)
# fails the target.
verify-static: lint
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

verify-test:
# tier 1; the allocation pins on pooled paths run only without the race detector
	$(GO) build ./... && $(GO) test ./...
# everything again under the race detector
	$(GO) test -race ./...
# the lock table, the lock service (its faulty fleet and cluster failover included) and the relational layer at 1, 2 and 4 Ps: their claims are multicore claims
	$(GO) test -race -cpu 1,2,4 ./internal/lockmgr/
	$(GO) test -race -cpu 1,2,4 ./internal/locksrv/
	$(GO) test -race -cpu 1,2,4 ./internal/relation/
# the age policies' verdicts are the lock table's, made under its latch: multicore claims too;
# a durable engine killed at random write/sync/checkpoint points, where every recovery must conserve the balance;
# and the fork of a transaction's work, which runs only at 2 Ps or more
	$(GO) test -race -cpu 1,2,4 -run 'TestWoundWaitVictimStorm|TestBalanceInvariantAllProtocols|TestDurablePowerCutCycles|TestPlanSplit|TestFork|TestCloseStopsNodeWorkers|TestCallerRunsUnclaimedShares|TestStaleClaimWordFails|TestFreeProcessorsCountRunners' ./internal/engine/
# benchmark/ is its own module, which root `go test ./...` does not reach: this compiles it against every API change
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
# the two engine smoke runs again, five times: each must see allocation to report (the retired pooled records keep it visible)
	cd benchmark && $(GO) test -short -count=5 -run 'TestSmoke/engine-(fine|coarse)$$' ./...
# lockd admin endpoint: real lock traffic scraped through /metrics; lockd over its file-backed grant journal under contending clients
	$(GO) test -race -count=2 -run 'TestAdmin|TestJournal' ./cmd/lockd/
# every package benchmark once, so none of them rots unrun (the simulator's event-loop and figure benchmarks are the only timing of that code outside benchmark/)
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

verify-fuzz:
# 10 s each: the two parsers that face the network (frame reader, request-body dispatch)
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=10s ./internal/locksrv/
	$(GO) test -run '^$$' -fuzz '^FuzzExecuteV2Body$$' -fuzztime=10s ./internal/locksrv/
# the four that face the disk (WAL record reader, RecoverSet classifier, log file header, snapshot decoder)
	$(GO) test -run '^$$' -fuzz '^FuzzReaderNext$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverSet$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLogHeader$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime=10s ./internal/wal/
# the one that faces a scrape (/metrics text)
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime=10s ./internal/obs/

verify-smoke:
# quick cmd/bench runs into /tmp (the checked-in reports are full-fidelity only, via `make bench`);
# -compare fails on a missed floor (lockmgr batch economy + zero-allocation budget, cluster 1.8x, recovery 2x)
# or a same-run ratio more than 25% under the checked-in one
	$(GO) run ./cmd/bench -suite lockmgr -quick -out /tmp/BENCH_lockmgr.quick.json -compare BENCH_lockmgr.json
	$(GO) run ./cmd/bench -suite cluster -quick -out /tmp/BENCH_cluster.quick.json -compare BENCH_cluster.json
	$(GO) run ./cmd/bench -suite recovery -quick -out /tmp/BENCH_recovery.quick.json -compare BENCH_recovery.json

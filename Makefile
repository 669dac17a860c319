# Pre-commit gate: `make check` runs the format/vet/build gate, the
# race-enabled tests of the packages with the hottest concurrency
# (iscsi, metrics, obs, middlebox, netsim, bufpool, the durable WAL, the
# scale-out control plane — sdn, splice, vswitch, core, cloud,
# orchestrator — and the content-addressed replication stack: cas,
# objstore, scrub, services/replicate), the allocs/op regression gates
# for the zero-copy chain hot path and the flow lookup, a short-mode
# soak smoke, and a short-mode backup smoke. `make test` is the full
# suite. Every stormbench target runs one entry of its suite table
# (`stormbench -suite <name>`) and, unless `-json ''` is given, appends a
# dated entry to that suite's section of BENCH_results.json. `make bench`
# prints the data-plane microbenchmarks with allocation stats and appends
# a dated before/after summary (suite fastpath). `make crash` runs the
# WAL durability-cost sweep and the kill/replay scenarios (suite crash,
# non-zero exit on data loss). `make trace` runs the end-to-end
# tracing experiment. `make soak` runs the sustained multi-tenant churn
# soak at full scale (500 tenants, dated entry in BENCH_results.json,
# non-zero exit on any failed gate). `make backup` runs the
# content-addressed replication suite (dedup ratio, fan-out throughput,
# scrub repair after corruption; dated entry in BENCH_results.json).
# `make overload` runs the resource-exhaustion suite (WAL/CAS full typed
# refusal, brownout breaker trip/recover, bounded memory; dated entry in
# BENCH_results.json). `make lint-taxonomy` greps the data-path services
# for raw fmt.Errorf at exhaustion sites that should carry an xerr class.

GO ?= go
RACE_PKGS := ./internal/iscsi ./internal/metrics ./internal/obs ./internal/middlebox ./internal/netsim ./internal/bufpool ./internal/initiator ./internal/target ./internal/services/replica ./internal/faults ./internal/wal ./internal/sdn ./internal/splice ./internal/vswitch ./internal/core ./internal/cloud ./internal/orchestrator ./internal/workload ./internal/cas ./internal/objstore ./internal/scrub ./internal/services/replicate ./internal/xerr ./internal/testutil
BENCH_PKGS := ./internal/iscsi ./internal/middlebox ./internal/bufpool ./internal/experiments

.PHONY: check fmt vet build test race bench allocs crash trace soak soak-short backup backup-short overload overload-short lint-taxonomy

check: fmt vet build lint-taxonomy race allocs soak-short backup-short overload-short

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Allocation regression gates (skipped under -race, which instruments
# allocations): the zero-copy chain hot path and the lock-free flow lookup.
allocs:
	$(GO) test -run 'TestChainWrite4KAllocBudget|TestLookupAllocFree' -count=1 -v ./internal/experiments ./internal/vswitch | grep -E 'allocs|FAIL|ok '

test:
	$(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench 'PDU|Encode|Writeback|Chain|GetRelease' -benchmem $(BENCH_PKGS)
	$(GO) run ./cmd/stormbench -suite fastpath

crash:
	$(GO) run ./cmd/stormbench -suite crash

trace:
	$(GO) run ./cmd/stormbench -suite tracing

# Full-scale sustained soak: 500 tenants with deploy/teardown churn,
# p99/alloc/lock-wait telemetry, dated entry in BENCH_results.json.
soak:
	$(GO) run ./cmd/stormbench -suite soak

# Short soak smoke for the pre-commit gate: small tenant count, short
# measured window, results not recorded.
soak-short:
	$(GO) run ./cmd/stormbench -suite soak -soaktenants 96 -soakdur 1500ms -json ''

# Full backup suite: multi-round delta workload through the replication
# box, dedup/convergence/scrub-repair gates, dated entry in
# BENCH_results.json.
backup:
	$(GO) run ./cmd/stormbench -suite backup

# Short backup smoke for the pre-commit gate: small image, results not
# recorded.
backup-short:
	$(GO) run ./cmd/stormbench -suite backup -backupchunks 128 -backuprounds 3 -json ''

# Full overload suite: WAL-full and CAS-full typed refusal and recovery,
# 1-slow-of-3 brownout with breaker trip/recover, bounded heap growth;
# dated entry in BENCH_results.json, non-zero exit on any failed gate.
overload:
	$(GO) run ./cmd/stormbench -suite overload

# Short overload smoke for the pre-commit gate: fewer brownout writes,
# results not recorded.
overload-short:
	$(GO) run ./cmd/stormbench -suite overload -overloadwrites 200 -json ''

# Taxonomy lint: exhaustion/overload/draining sentinels on the data path
# must carry an xerr class (xerr.New), not a bare errors.New — an untyped
# sentinel defeats retry-budget and circuit-breaker classification.
lint-taxonomy:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' -E 'errors\.New\("[^"]*(full|drain|overload|exhaust|busy)' internal/wal internal/cas internal/middlebox internal/services internal/iscsi 2>/dev/null || true); \
	if [ -n "$$out" ]; then \
		echo "untyped exhaustion/overload sentinels (use xerr.New):"; echo "$$out"; exit 1; \
	fi

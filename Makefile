GO ?= go

.PHONY: build test race lint lint-fast vet fmt bench-smoke watch-smoke chaos-smoke chaos-restart-smoke chaos-overload-smoke chaos ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race tier: the concurrency-heavy packages under the race detector.
# -short keeps it fast enough to run on every change.
race:
	$(GO) test -race -short ./internal/core/... ./internal/hyracks/... ./internal/lsm/... ./internal/governor/...

# feedlint enforces the architecture invariants in DESIGN.md.
lint:
	$(GO) run ./cmd/feedlint ./...

# Same checks, faster loads: -faststd type-checks against the compiler's
# exported package data instead of re-checking stdlib sources, and -v
# prints where the time went. Use during edit-lint loops.
lint-fast:
	$(GO) run ./cmd/feedlint -faststd -v ./...

vet:
	$(GO) vet ./...

# One-iteration smoke run of the write- and read-path benchmarks: proves the
# insert paths, byte-level validation and routing, and the block-cache read
# path still execute end to end without paying for a full measurement.
# ReadPath also asserts its acceptance bounds (hot gets issue zero disk
# reads; scans read each block once) even at 1x.
bench-smoke:
	$(GO) test -run '^$$' -bench=ValidateEncoded -benchtime=1x ./internal/adm/
	$(GO) test -run '^$$' -bench=KeyHashFunc -benchtime=1x ./internal/storage/
	$(GO) test -run '^$$' -bench=InsertPath -benchtime=1x ./internal/storage/
	$(GO) test -run '^$$' -bench=FlushConcurrency -benchtime=1000x ./internal/lsm/
	$(GO) test -run '^$$' -bench=ReadPath -benchtime=1x ./internal/lsm/
	$(GO) test -run '^$$' -bench=Restart -benchtime=1x ./internal/lsm/
	$(GO) test -run '^$$' -bench=Overload -benchtime=1x .

# Observability smoke: the admin endpoints (/feeds, /metrics, pprof) and
# the `show feeds` verb against a live socket feed, plus the per-policy
# SubscriptionStats ledger invariant. Proves the feedwatch surface stays
# coherent with the metrics registry it reads from.
watch-smoke:
	$(GO) test -count=1 -run 'TestAdminEndpointsDuringLiveFeed|TestMetricsDocMatchesRegistry' .
	$(GO) test -count=1 -run 'TestSubscriptionStats|TestSubscriptionSpillError' ./internal/core/

# Chaos smoke: a 50-seed fault-injection sweep with the deterministic
# harness (internal/chaos). Every seed generates a fault schedule; the
# invariant checkers (at-least-once, index consistency, replica
# convergence, WAL replay idempotence) must hold under all of them.
# Failures print a `feedchaos -seed N -replay '...'` repro line.
chaos-smoke:
	$(GO) run ./cmd/feedchaos -seeds 50 -records 150

# Restart chaos: the same 50-seed sweep with a restart-under-fault phase —
# recovery itself is crashed (torn manifest snapshots, mid-replay faults)
# and a second clean restart must still recover exactly.
chaos-restart-smoke:
	$(GO) run ./cmd/feedchaos -restart -seeds 50 -records 150

# Overload chaos: a 50-seed governor sweep — a seeded low-priority flood
# offering several node-memory-budgets' worth of data races a high-priority
# at-least-once feed. Invariants: governor-tracked bytes stay bounded, the
# high-priority feed loses nothing, and the flood's shed ledger balances
# exactly (stored + shed + discarded == emitted).
chaos-overload-smoke:
	$(GO) run ./cmd/feedchaos -overload -seeds 50 -records 120

# Full chaos sweep: more seeds, full-size workloads. Not part of tier-1;
# run before cutting a release or after touching recovery/replay code.
chaos:
	$(GO) run ./cmd/feedchaos -seeds 500 -records 300

fmt:
	gofmt -l .

# Tier-1 verification in one command.
ci:
	./ci.sh

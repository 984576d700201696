#!/bin/sh
# ci.sh — tier-1 verification in one command: build, vet, feedlint, tests.
# Usage: ./ci.sh [-race]  (-race appends the race-detector tier)
set -eu

go build ./...
echo "build: ok"

go vet ./...
echo "vet: ok"

go run ./cmd/feedlint ./...
echo "feedlint: ok"

# The background flush/compaction pipeline was specifically built so the LSM
# needs no lockorder waivers: no disk I/O happens under the tree lock. Keep
# it that way — new suppressions in internal/lsm are a design regression,
# not a lint inconvenience.
if grep -rn "feedlint:allow lockorder" internal/lsm/ >/dev/null 2>&1; then
	echo "lockorder suppressions found in internal/lsm:" >&2
	grep -rn "feedlint:allow lockorder" internal/lsm/ >&2
	exit 1
fi
echo "lsm lockorder suppressions: none"

go test ./...
echo "test: ok"

# The benchmark is a separate module (perfbench/go.mod), so the root
# `go test ./...` never builds it; it calls the storage and feed APIs, and
# a change to them must not leave it broken.
(cd perfbench && go build ./... && go vet ./... && go test ./...)
echo "perfbench: ok"

# Flush is a synchronous checkpoint: when it returns, the manifest commit
# and WAL segment retirement are done. Repeat the test that counts the
# segments left behind, since a regression shows up only on some runs.
go test -count=20 -run TestWALSegmentLifecycle ./internal/lsm/
echo "flush checkpoint: ok"

# A task that ends while its node is dead fails the job, whichever of the
# node's death, its input closing or its cancel its select sees first.
# Repeat the test, since a regression shows up only on some runs.
go test -count=50 -run TestNodeDeathFailsJobAndFiresClusterEvent ./internal/hyracks/
echo "node death: ok"

# Replay the checked-in fuzz corpora (testdata/fuzz seeds run as ordinary
# tests) for the two codecs with wire formats: ADM records and LSM run
# blocks. Keeps past crashers fixed without needing a fuzzing budget.
go test -run Fuzz -count=1 ./internal/adm/ ./internal/lsm/
echo "fuzz corpus replay: ok"

make bench-smoke
echo "bench-smoke: ok"

make watch-smoke
echo "watch-smoke: ok"

go run ./cmd/feedchaos -seeds 50 -records 150
echo "chaos-smoke: ok"

go run ./cmd/feedchaos -restart -seeds 50 -records 150
echo "chaos-restart-smoke: ok"

make chaos-overload-smoke
echo "chaos-overload-smoke: ok"

if [ "${1:-}" = "-race" ]; then
	go test -race -short ./internal/core/... ./internal/hyracks/... ./internal/lsm/... ./internal/governor/...
	# End-to-end replication and restart tests: the promotion/resync and
	# recovery paths are the most concurrency-sensitive in the stack.
	go test -race -short -run '(?i)replicat|Restart|FeedMaintains' .
	# The governor's load-shedding path under the race detector: the full
	# 50-seed overload sweep (the acceptance bar for the governor).
	go run -race ./cmd/feedchaos -overload -seeds 50 -records 120
	echo "race: ok"
fi

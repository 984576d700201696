#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#   bash perfbench/run.sh --workload feed_steady --seed 1 --seconds 10 --trace 0
# Build cache, binary, data and trace files all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

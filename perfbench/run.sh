#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload history-dashboard --seed 1 --seconds 10 --trace 0
#
# Build cache, binary, data directories and traces all live under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"

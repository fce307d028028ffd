#!/usr/bin/env bash
# Builds the benchmark harness and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload query_ro --seed 1 --seconds 16 --trace 0
#
# Everything it writes (Go build cache, binaries, generated data, child
# logs) goes under .bench_build/ in the checkout that holds this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload emulate --seed 1 --seconds 20 --trace 0
# Every build product and scratch file stays under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

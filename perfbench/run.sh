#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload stack-load --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/perfbench"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" TMPDIR="$build/go-tmp" GOPATH="$build/go-path" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" --dir "$build/perfbench" "$@"

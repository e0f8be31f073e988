#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload helr-wide --seed 1 --seconds 5 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and Go's
# temporary files all stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/benchmark" build -buildvcs=false -o "$build/alchemist-bench" .
exec "$build/alchemist-bench" "$@"

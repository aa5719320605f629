#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash benchmark/run.sh --workload flow-100k --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under .bench_build/
# in the current directory, so the run reads and writes nothing outside it
# apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOPATH="$out/gopath"

(cd "$root/benchmark" && go build -o "$out/mrlegal-bench" .)
exec "$out/mrlegal-bench" "$@"

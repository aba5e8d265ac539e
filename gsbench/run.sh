#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout; everything it builds or writes stays under .bench_build/:
#
#   bash gsbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# The last line of standard output is the JSON result. In a directory that
# holds only the benchmark (no gpushield module next to it) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/gsbench" && go build -o "$build/gsbench" .)
exec "$build/gsbench" "$@"

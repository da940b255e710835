#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout; every argument goes to the program (see main.go). Everything
# the build and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTELEMETRYDIR="$build/gotelemetry" GOENV=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"

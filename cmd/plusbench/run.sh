#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's command): builds
# cmd/plusbench from the checkout it is run in and hands it the driver's
# arguments. Everything the Go toolchain writes — build cache, temp
# files, both binaries — stays under .bench_build/ in that checkout.
# By hand, `go run ./cmd/plusbench ...` does the same with your own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/plusbench" ./cmd/plusbench
exec "$build/plusbench" "$@"

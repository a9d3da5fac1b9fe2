#!/bin/sh
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. This is BENCHMARK.json's command: unlike a bare
# `go run ./bench` it keeps the compiler's cache and the binary inside the
# checkout, so a run reads and writes nothing outside it. Run from the
# repository root.
set -e
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. Everything the Go toolchain writes (build cache,
# temp files, telemetry) is redirected under .bench_build so a run touches
# nothing outside the checkout. Arguments are passed through to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
HOME="$build/home" GOCACHE="$build/home/gocache" GOPATH="$build/home/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -C "$here" -o "$build/masc-benchmark" .
cd "$root"
exec "$build/masc-benchmark" -out "$build/out" "$@"

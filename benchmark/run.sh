#!/usr/bin/env bash
# Builds ucperf from source into the checkout's .bench_build directory and
# runs it from the checkout root. Everything the Go toolchain writes (build
# cache, temp files) is kept inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd benchmark && go build -o "$build/ucperf" .) >&2
exec "$build/ucperf" "$@"

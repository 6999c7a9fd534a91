#!/usr/bin/env bash
# The one command: builds the benchmark (a Go module of its own) and runs it
# from the root of the checkout. Everything the build and the run write stays
# under .bench_build/ in that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/bin/lgc-benchmark" .)
cd "$root"
exec "$build/bin/lgc-benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind stays in .bench_build/ there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/fedmp-benchmark" .)
cd "$root"
exec "$build/fedmp-benchmark" "$@"

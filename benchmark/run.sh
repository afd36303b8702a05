#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root. Everything the build writes (Go build cache, module
# cache, binary) stays under .bench_build/, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/granulock-benchmark" .)
cd "$root"
exec "$build/granulock-benchmark" "$@"

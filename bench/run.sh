#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Everything
# the build and the run write — Go's caches, the binary, the database files —
# goes under .bench_build/, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"

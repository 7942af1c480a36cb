#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there with the arguments given. Everything the go tool
# writes (build cache, temporary files, GOPATH) is kept inside .bench_build/,
# and nothing is fetched: the only dependency is the repository itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
       GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/stabilizer-benchmark" .)
cd "$root"
exec "$build/stabilizer-benchmark" "$@"

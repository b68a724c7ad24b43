#!/usr/bin/env bash
# Builds damqbench from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash cmd/damqbench/run.sh --workload omega1024-w1 --seed 1988 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay under
# .bench_build in the checkout, and the Go tool is kept offline.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$build/bin/damqbench" .)
exec "$build/bin/damqbench" -out "$build/damqbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload npb-bt-a --seed 1 --seconds 25 --trace 0
#
# Run from the root of a checkout. Everything the build writes (the Go
# caches and the binary) stays in the build directory: $CARGO_TARGET_DIR
# when set, else .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/go-tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
mkdir -p "$GOTMPDIR"

# A checkout without the module the benchmark measures cannot build it:
# fail with the build's message on stderr and no result line.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) 1>&2

exec "$build/perfbench" "$@"

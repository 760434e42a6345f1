#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash bench/run.sh --workload serve-mix --seed 3 --seconds 20 --trace 0
#
# bench/ is a module of its own that builds against the repository
# beside it. The Go build cache, temporary files and every file the
# runs write stay under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -workdir "$build" "$@"

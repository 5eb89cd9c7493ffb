#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument through.
# Run from the repository root:
#
#   bash bench/run.sh --workload plancost-tpch --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1            # all workloads
#
# The Go build cache, module cache and the binary live under .bench_build/ in
# the directory this is run from, so the benchmark writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod

go -C "$root/bench" build -o "$build/sqlbarber-bench" .
exec "$build/sqlbarber-bench" "$@"

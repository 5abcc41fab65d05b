#!/usr/bin/env bash
# Builds dbench from source into .bench_build/ of the checkout it is run
# from and executes it there with the given arguments.
#
# Everything the Go toolchain writes — build cache, module cache,
# telemetry counters — is pointed inside the checkout, so a run reads
# and writes nothing outside it; the first build in a fresh checkout
# therefore compiles the standard library as well (a minute or two on
# two cores). Later builds in the same checkout are a cache look-up.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOENV=off
export GOTOOLCHAIN=local
# The binary carries the commit it was built from when the checkout is a
# git repository; where git cannot say (not a repository, or one it
# refuses to read), build without the stamp.
go build -C benchmarks -o "$root/.bench_build/dbench" ./dbench 2>/dev/null ||
	go build -C benchmarks -buildvcs=false -o "$root/.bench_build/dbench" ./dbench
exec "$root/.bench_build/dbench" "$@"

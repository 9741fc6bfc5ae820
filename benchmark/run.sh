#!/bin/bash
# Builds the benchmark and runs it with the arguments given. Run from the
# root of a checkout. Everything the Go toolchain writes (build cache,
# temporary files, its own counters, the binary) stays under .bench_build in
# the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repo (no go.mod or internal/core here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command would start a detached
# telemetry child (crash monitor + upload check) that outlives it; the mode
# file is what `go telemetry off` writes, and with it no child is started.
echo off >"$build/config/go/telemetry/mode"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

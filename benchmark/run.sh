#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload schedule-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go command's own config and
# telemetry counters, binaries and span files all stay in .bench_build under
# the working directory, and no module is downloaded.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"

#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload scale-20k --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the telemetry directory and the
# binary all stay under .bench_build in the checkout; nothing is
# downloaded (GOTOOLCHAIN=local, GOPROXY=off).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/benchmark" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"

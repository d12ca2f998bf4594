#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload point-cached --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, data files and traces all stay under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"

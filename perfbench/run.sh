#!/usr/bin/env bash
# Builds memgazed and the benchmark driver from this checkout's sources
# into .bench_build/, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/: the Go build cache, GOPATH and the Go config
# directory included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/memgazed" ./cmd/memgazed
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -memgazed "$out/memgazed" -work "$out/work" "$@"

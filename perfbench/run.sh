#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-queries --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temp files, the binary and
# the warehouses the benchmark creates.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache" GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"

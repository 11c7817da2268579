#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-pairs --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) stays under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" -out "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark and neutral-serve from the checkout it is run in, then
# runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload oe-csp --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Everything it builds or writes stays under
# .bench_build in that root: the Go build cache, binaries, server logs,
# traces and validity records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go build -o "$out/neutral-serve" ./cmd/neutral-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" -serve "$out/neutral-serve" "$@"

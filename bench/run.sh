#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.:
#
#   bash bench/run.sh --workload suite-direct --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# files, trace directories) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/bench" && go build -o "$out/ctbia-bench" .)
cd "$root"
exec "$out/ctbia-bench" "$@"

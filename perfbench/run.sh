#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload rtds_hifi --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build output, the Go build cache
# and the traced runs' results streams all stay under .bench_build/ in the
# current directory; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" --out "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload b14 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# files, the serve workload's journal) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"

#!/usr/bin/env bash
# Builds the measured binaries and the benchmark from this checkout's
# sources, then runs one benchmark invocation. Run from the checkout
# root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The benchmark is a module of its own that builds the repository's
# packages through a replace of ../; outside a checkout that fails here,
# before any result is printed.
(cd perfbench && go build -o "$out/bin/" \
	offnetscope/cmd/worldgen offnetscope/cmd/offnetmap offnetscope/cmd/offnetd .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"

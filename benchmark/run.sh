#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache and
# temp files included, so nothing is written outside the checkout) and
# runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-direct --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -seed 1 -out benchmark/baseline.json     # all four, both runs
set -euo pipefail

if [ ! -f BENCHMARK.json ] || [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
  echo "benchmark/run.sh: run from the root of a full checkout (go.mod, BENCHMARK.json, benchmark/)" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Everything the go tool writes stays in .bench_build/: caches, temp
# files, and (through XDG_CONFIG_HOME) its telemetry counters. GOENV=off
# and GOFLAGS keep a user's go/env settings out of the build.
(
  export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
  export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
  go build -C benchmark -o "$build/faasnap-benchmark" .
)
exec "$build/faasnap-benchmark" -tmp "$build" "$@"

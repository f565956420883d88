#!/usr/bin/env bash
# Builds the benchmark and the ipexd server from this checkout's sources,
# then runs one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and every scratch file of a run stay
# under .bench_build/ipexbench in the checkout. A tree without the
# simulator's sources (only BENCHMARK.json and bench/) fails the build and
# exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build/ipexbench"
mkdir -p "$out/gotmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off

go build -o "$out/ipexd" ./cmd/ipexd
go -C bench build -o "$out/bench" .
exec "$out/bench" --ipexd "$out/ipexd" --work "$out/run" "$@"

#!/bin/bash
# Builds the benchmark and runs it, keeping every file the toolchain writes
# (build cache, link work directory, binary) under .bench_build/ in the
# checkout. Arguments are passed on to the program; see README.md.
#
#	bash bench/run.sh --workload scan_agg --seed 1 --seconds 16 --trace 0
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go -C "$root/bench" build -o "$build/bench" .
# The program finds golden.json and ../BENCHMARK.json, and makes
# update_scan's database directory, relative to bench/.
cd "$root/bench"
exec "$build/bench" "$@"

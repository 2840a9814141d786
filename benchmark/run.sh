#!/usr/bin/env bash
# Builds the host benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-local --seed 1989 --seconds 20 --trace 0
#
# The Go build cache, the build's temporary files, the toolchain's config
# directory and the binary all live under .bench_build/, so a run reads and
# writes nothing outside the checkout. The benchmark module imports the
# simulator through `replace gammajoin => ../`, so the build (and therefore
# the run) fails when the simulator is absent.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go -C "$root/benchmark" build -o "$build/gammajoin-bench" .
exec "$build/gammajoin-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload tsp-switch --seed 0 --seconds 20 --trace 0
#
# The build cache, the binary and the run reports stay inside the
# repository, under .bench_build and .bench_out.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPATH=$build/gopath
export GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$root/.bench_out" "$@"

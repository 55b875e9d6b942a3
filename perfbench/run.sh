#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload mem-burst --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, WAL files, spans and
# CPU profiles.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"

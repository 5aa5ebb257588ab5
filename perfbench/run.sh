#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload spec-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, telemetry) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off
export GOENV=off
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds vbench from the checkout it sits in and runs it from the
# checkout's root with the given arguments, e.g.
#
#   bash cmd/vbench/run.sh --workload bind-paper --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, ledgers
# and spans.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/bin/vbench" .)
cd "$root"
exec "$build/bin/vbench" "$@"

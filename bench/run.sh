#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything the build
# and the run write stays inside the checkout: the Go caches and the binary
# under .bench_build/, store directories under .bench_build/work/, trace
# files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command's scratch files and its telemetry counters stay inside too.
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/chariots-bench" .) >&2
cd "$root"
exec "$build/chariots-bench" "$@"

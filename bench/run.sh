#!/usr/bin/env bash
# Builds the benchmark (once per checkout; later calls hit the build cache)
# and runs it. Every file the build and the run write stays under bench/:
# .build/ holds the Go caches and the binary, out/ the results and traces.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The benchmark runs with Go's GC defaults: overrides would change what is measured.
unset GOGC GOMEMLIMIT GOMAXPROCS GODEBUG
# The go command keeps its env file and its telemetry counters in the user's
# config dir; for the build that is a directory of the checkout too.
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/tpibench" . >&2
exec "$build/tpibench" -out "$here/out" "$@"

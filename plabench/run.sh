#!/usr/bin/env bash
# Builds the plabench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash plabench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
#
# Every byproduct of the build and the run (Go build cache, binary,
# audit sinks, segment files, span dumps) stays under .bench_build and
# .bench_out in the current directory.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/gotmp"
export GOMODCACHE="$build/modcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/plabench" && go build -o "$build/plabench" .)
exec "$build/plabench" -out "$root/.bench_out" "$@"

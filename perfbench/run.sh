#!/usr/bin/env bash
# Builds the benchmark harness and chaos-serve from the source tree it
# sits in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload native-pagerank --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch files, run
# records) goes under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
# Keep the go command's own state (module cache, config, telemetry) in the build directory too.
export GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/chaos-serve" ./cmd/chaos-serve >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/bin/perfbench" -build-dir "$build" -serve-bin "$build/bin/chaos-serve" -commit "$commit" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lone-sim --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache, the binary, the
# benchmark's scratch and result files) stays under .bench_build in the
# checkout, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C perfbench build -buildvcs=false -o "$build/bin/perfbench" . >&2
# The process start, in Unix microseconds (EPOCHREALTIME without its
# locale's decimal separator), so setup_s covers exec, the Go runtime and
# package initialisation too.
start="${EPOCHREALTIME/[!0-9]/}"
exec "$build/bin/perfbench" --start-us "$start" "$@"

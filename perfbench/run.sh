#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload reduce-wide --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live in .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout, so nothing is written
# elsewhere. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"

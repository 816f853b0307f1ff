#!/usr/bin/env bash
# Builds stad and the benchmark from this checkout's sources, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-full --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run scratch files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/stad" ./cmd/stad
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -stad "$out/bin/stad" -root "$root" -work "$out/perfbench" "$@"

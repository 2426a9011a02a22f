#!/usr/bin/env bash
# Builds perfbench into .bench_build/perfbench at the repository root and
# runs it from this directory, passing every argument through:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build too, so
# a run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
out=$(cd .. && pwd)/.bench_build
mkdir -p "$out/perfbench" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
go build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload xl-density --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Everything it writes (Go build
# cache, binary, results, trace files) stays under .bench_build/, or
# under $CARGO_TARGET_DIR when that is set to a relative path.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run from the root of the checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*|*..*) build=.bench_build ;;
esac
mkdir -p "$root/$build/gocache" "$root/$build/tmp"

export GOCACHE="$root/$build/gocache"
export GOTMPDIR="$root/$build/tmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$root/$build/perfbench" .)
exec "$root/$build/perfbench" --out "$build/perfbench-out" "$@"

#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload head-warm --seed 1 --seconds 54 --trace 0
#
# Build outputs, the Go build cache and trace dumps stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out/perfbench" "$@"

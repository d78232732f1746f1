#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every file the build writes
# (binary, Go build cache, temporary files) lands in .bench_build/ at the
# repository root, so nothing outside the checkout is touched.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -trimpath -buildvcs=false -o "$out/ralin-bench" .
exec "$out/ralin-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#   bash perfbench/run.sh --workload run-seq --seed 1 --seconds 36 --trace 0
# Run it from the repository root. The Go build cache, the binary and
# everything a run writes stay under .bench_build in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

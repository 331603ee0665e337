#!/usr/bin/env bash
# Builds the osdiv, nvdgen and nvdimport commands and the benchmark from
# this checkout, then runs one benchmark invocation with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload hot-tables --seed 1 --seconds 10 --trace 0
# Everything it writes (Go build cache, binaries, generated corpus, logs,
# results) stays under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$root/perfbench"
go build -o "$build/bin/" osdiversity/cmd/osdiv osdiversity/cmd/nvdgen osdiversity/cmd/nvdimport . >&2
cd "$root"
exec "$build/bin/perfbench" -build "$build" "$@"

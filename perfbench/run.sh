#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload retention-sweep --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh --steady 5
#
# Everything the build writes (the Go build cache and the binary) goes to
# .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (it needs go.mod, internal/serve and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds mflushperf from the sources of this checkout and runs
# it with the given arguments, for example:
#
#   bash bench/mflushperf/run.sh --workload solo-mem --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and every file a run writes live under
# .bench_build/ at the root of the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly CGO_ENABLED=0 XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/bin/mflushperf" .)
exec "$out/bin/mflushperf" -workdir "$out/mflushperf" "$@"

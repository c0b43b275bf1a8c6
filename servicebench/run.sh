#!/usr/bin/env bash
# Builds the campaign-service benchmark from this checkout and runs it.
# Everything the build and the run leave behind goes under .bench_build/ at
# the root of the checkout (Go build cache included), so nothing is read or
# written outside it. Arguments are passed to the benchmark unchanged:
#
#   bash servicebench/run.sh --workload all --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$here" && go build -o "$out/servicebench" .)
cd "$root"
exec "$out/servicebench" "$@"

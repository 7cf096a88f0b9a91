#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload hot-super --seed 1 --seconds 25 --trace 0
#
# Every build output and scratch file stays under .bench_build/ at the
# checkout root; nothing is fetched (the benchmark module depends only on
# the repository's own module).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep the Go tool's caches, temporary files and user configuration
# (including its telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"

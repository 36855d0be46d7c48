#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk-keyed --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# Go's config directory) stays under .bench_build/ in the current
# directory. The build output goes to standard error, so the last line
# of standard output is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
# The module has no dependencies outside the repository: never fetch.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

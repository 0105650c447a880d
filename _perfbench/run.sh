#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash _perfbench/run.sh --workload call --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the compiler's scratch files and the
# traced run's span files go to .bench_build/ at the repository root,
# so nothing is written outside the checkout. No module is downloaded:
# the benchmark's only dependency is the repository module one
# directory up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"

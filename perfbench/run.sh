#!/usr/bin/env bash
# Builds perfbench and msserve from this checkout's sources, then runs
# perfbench with the given arguments from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its user configuration and telemetry counters
# under the user's config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/msserve" ./cmd/msserve
exec "$out/perfbench" "$@"

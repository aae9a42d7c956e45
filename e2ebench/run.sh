#!/usr/bin/env bash
# Builds musicd and the benchmark from this tree, then runs the benchmark:
#
#   bash e2ebench/run.sh --workload uniform-lan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# and the processes' scratch files stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/musicd" ]; then
    echo "e2ebench: run from the repository root (no go.mod or cmd/musicd here)" >&2
    exit 1
fi
go build -o "$out/musicd" ./cmd/musicd
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -musicd "$out/musicd" -dir "$out/run" "$@"

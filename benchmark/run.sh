#!/usr/bin/env bash
# Builds the byzcons benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' span files stay under .bench_build/ in that directory.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/byzbench" .)
exec "$out/byzbench" "$@"

#!/usr/bin/env bash
# Builds twopcpd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload dense_aligned --seed 1 --seconds 6 --trace 0
#   bash e2ebench/run.sh aa -k 10
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o .bench_build/bin/twopcpd ./cmd/twopcpd >&2
(cd e2ebench && go build -o ../.bench_build/bin/e2ebench .) >&2
exec .bench_build/bin/e2ebench "$@"

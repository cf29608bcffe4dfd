#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash parmacbench/run.sh --workload train-inproc --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export XDG_CONFIG_HOME="$out/config" # keeps Go telemetry counters inside the checkout
(cd "$here" && go build -buildvcs=false -o "$out/parmacbench" .)

PARMACBENCH_REV=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PARMACBENCH_REV PARMACBENCH_OUT="$out/spans"
exec "$out/parmacbench" "$@"

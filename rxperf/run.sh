#!/usr/bin/env bash
# Builds rxperf from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash rxperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build output, the Go build cache included, stays under
# .bench_build in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd rxperf && go build -o "$out/rxperf" .)
exec "$out/rxperf" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing the
# arguments on, e.g.:
#   bash simbench/run.sh --workload tcp-multiflow --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, traces) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config here too; telemetry is off
# so the go command neither writes counters nor starts an uploader.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go telemetry off
go -C simbench build -o "$out/simbench" . >&2
exec "$out/simbench" "$@"

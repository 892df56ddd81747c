#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-dense --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in the working directory: the Go build cache, temporary
# build files, the binary, and the job logs and span files of a run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
  GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

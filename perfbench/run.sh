#!/usr/bin/env bash
# Builds advisord and the benchmark from the sources of this checkout, then
# runs one workload. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload pipeline|serve|ingest --seed 42 --seconds 20 --trace 0|1
#
# Everything it writes stays under .bench_build: the Go build cache, the
# binaries, the generated inputs and each run's raw results.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
  GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/advisord" ./cmd/advisord
(cd perfbench && go build -o "$build/bin/perfbench" .)
# go build rewrites both binaries on every run; flush them now rather than
# have the kernel write them back while the run measures.
sync
exec "$build/bin/perfbench" --build "$build" "$@"

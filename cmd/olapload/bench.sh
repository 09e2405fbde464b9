#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"), run from the root of
# a checkout as
#   bash cmd/olapload/bench.sh --workload W --seed N --seconds S --trace 0|1
# It builds olapload and olapd from source into .bench_build/ and keeps the
# go caches and every temp file (WAL, spans, olapd log) under that directory
# too, so a run reads and writes only inside its checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/olapload" ./cmd/olapload
go build -o "$build/olapd" ./cmd/olapd
exec "$build/olapload" -olapd "$build/olapd" "$@"

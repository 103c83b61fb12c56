#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's source and runs it
# with the given arguments; run it from the repository root:
#
#   bash bench/run.sh --workload cli-report-100k --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare base/*.json change/*.json
#
# Every build output and Go cache stays under .bench_build/ so the run
# reads and writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOENV=off GOWORK=off CGO_ENABLED=0
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"

#!/usr/bin/env bash
# Builds cmd/pathbench from source and runs it from the checkout root.
# Every build artifact, the Go build cache included, stays under
# .bench_build, so the benchmark reads and writes nothing outside the
# checkout:
#
#   bash cmd/pathbench/run.sh --workload typeahead --seed 1 --seconds 10 --trace 0
#   bash cmd/pathbench/run.sh --seed 1            # every workload in turn
#   bash cmd/pathbench/run.sh compare P1.json P2.json -- C1.json C2.json
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$(dirname "$0")" build -o "$out/bin/pathbench" .
exec "$out/bin/pathbench" "$@"

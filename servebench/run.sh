#!/usr/bin/env bash
# Builds linksynthd and the benchmark program from the checkout's sources,
# then runs the benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Every build output and scratch file stays under .bench_build/ at the
# root: the Go build cache included, so nothing is written outside the
# checkout. The build fails, and the script exits non-zero without a
# result, when the repository's sources are not there.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/servebench"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

cd "$root/servebench"
go build -o "$build/bin/linksynthd" repro/cmd/linksynthd
go build -o "$build/bin/servebench" .
cd "$root"
exec "$build/bin/servebench" --linksynthd "$build/bin/linksynthd" --work "$build" "$@"

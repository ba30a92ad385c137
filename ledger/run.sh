#!/usr/bin/env bash
# Builds the ledger benchmark from the sources of this checkout and runs it:
#
#   bash ledger/run.sh --workload compile|run|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build
mkdir -p "$build"
export GOCACHE="$PWD/$build/gocache" GOMODCACHE="$PWD/$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C ledger -o "../$build/bin/ledger" .
exec "$build/bin/ledger" "$@"

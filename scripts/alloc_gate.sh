#!/usr/bin/env bash
# alloc_gate.sh — run the pooled/fresh allocation benchmark pairs.
#
# Each pooled hot path ships a paired benchmark that measures the same work
# with pools enabled and with pools bypassed the way the code allocated
# before pooling (BenchmarkBitIOAlloc/{pooled,fresh}, BenchmarkRegionEncode-
# Alloc, BenchmarkLZTokenDecodeAlloc, BenchmarkRequestScratch, and
# BenchmarkFrameCodecAlloc — the wire codec's frame buffers). This script runs
# them all with -benchmem; CI pipes the output into
#
#   go run ./cmd/benchhist -allocs alloc.txt
#
# which appends the pooled and fresh allocs/op + B/op medians to
# BENCH_history.json and fails if a pooled path regressed past its
# allocs/op ceiling or the fresh/pooled ratio fell under its floor.
#
# -benchtime is iteration-count based (default 200x), not duration based:
# Go reports allocs/op as an integer average over the run, so a fixed count
# makes pool warm-up (a handful of allocations on the first iterations)
# round to the same digit on every machine instead of flaking with speed.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
BENCHTIME="${BENCHTIME:-200x}"

go test -run '^$' \
  -bench 'BenchmarkBitIOAlloc|BenchmarkRegionEncodeAlloc|BenchmarkLZTokenDecodeAlloc|BenchmarkRequestScratch|BenchmarkFrameCodecAlloc' \
  -benchtime "$BENCHTIME" -count "$COUNT" -benchmem \
  ./internal/huffman/ ./internal/streamcomp/ ./internal/lzcomp/ ./internal/serve/

#!/usr/bin/env bash
# fastpath_guard.sh — end-to-end proof that the fast-path engine changes
# nothing observable. For a set of mediabench programs it runs the full
# pipeline (emit → assemble → profile → squash), then executes each squashed
# image twice — default fast paths vs em-run -nofastpath — and requires:
#
#   1. identical squashed-image SHA-256 (squash itself never depends on the
#      fast paths; this also re-checks PR 1's determinism gate output),
#   2. byte-identical program output,
#   3. identical -stats lines: instructions, cycles, decompression counts,
#      and compressed bits read must match to the digit.
#
# Every program is checked in three squash variants, one per fast path the
# runtime ships: the default decompress-to-buffer image (split-stream coder),
# the §8 interpret-in-place image (-interpret, exercising the decoded-
# instruction memo), and the LZ dictionary-coder image (-coder lz,
# exercising the table-driven token decoder).
#
# Usage: scripts/fastpath_guard.sh [bench ...]   (default: adpcm g721_enc gsm)
set -euo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
[ ${#benches[@]} -gt 0 ] || benches=(adpcm g721_enc gsm)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "building tools..."
go build -o "$work" ./cmd/mediabench ./cmd/em-as ./cmd/em-run ./cmd/squash

# check_variant <bench> <label> [extra squash flags...]
# Squashes twice (reproducibility), then runs the image with fast paths on
# and off and demands identical status, output, and simulated stats.
check_variant() {
  local b=$1 label=$2
  shift 2
  local img="$work/$b.$label.sqz.exe"

  "$work/squash" -profile "$work/$b.prof" "$@" -o "$img" "$work/$b.o" > /dev/null
  "$work/squash" -profile "$work/$b.prof" "$@" -o "$img.2" "$work/$b.o" > /dev/null
  local h1 h2
  h1=$(sha256sum "$img" | cut -d' ' -f1)
  h2=$(sha256sum "$img.2" | cut -d' ' -f1)
  if [ "$h1" != "$h2" ]; then
    echo "FAIL: $b [$label] squashed image not reproducible ($h1 vs $h2)" >&2
    exit 1
  fi
  echo "$b [$label] squashed image sha256 $h1"

  set +e
  "$work/em-run" -stats -in "$work/$b.time.in" "$img" \
    > "$work/$b.$label.fast.out" 2> "$work/$b.$label.fast.stats"
  local fast_status=$?
  "$work/em-run" -stats -nofastpath -in "$work/$b.time.in" "$img" \
    > "$work/$b.$label.slow.out" 2> "$work/$b.$label.slow.stats"
  local slow_status=$?
  set -e
  if [ "$fast_status" != "$slow_status" ]; then
    echo "FAIL: $b [$label] exit status $fast_status (fast) vs $slow_status (-nofastpath)" >&2
    exit 1
  fi
  cmp "$work/$b.$label.fast.out" "$work/$b.$label.slow.out" || {
    echo "FAIL: $b [$label] output differs with -nofastpath" >&2; exit 1; }
  diff "$work/$b.$label.fast.stats" "$work/$b.$label.slow.stats" || {
    echo "FAIL: $b [$label] simulated stats differ with -nofastpath" >&2; exit 1; }
  sed 's/^/  /' "$work/$b.$label.fast.stats"
}

for b in "${benches[@]}"; do
  echo "== $b =="
  "$work/mediabench" -only "$b" -dir "$work"
  "$work/em-as" -o "$work/$b.o" "$work/$b.s"
  "$work/em-as" -link -o "$work/$b.exe" "$work/$b.s"
  "$work/em-run" -in "$work/$b.prof.in" -profile "$work/$b.prof" \
    "$work/$b.exe" > /dev/null

  check_variant "$b" default
  check_variant "$b" interp -interpret -theta 0.001 -stub-capacity 64
  check_variant "$b" lz -coder lz
done

echo "fastpath guard passed: ${benches[*]}"

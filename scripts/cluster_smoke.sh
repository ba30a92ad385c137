#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end proof of the squashrouter tier. It:
#
#   1. checks byte-identity through the router: batch frames through a
#      3-backend cluster must produce SHA-256-identical images to one-shot
#      cmd/squash, with within-batch sharing intact;
#   2. records a seeded multi-key request mix, replays it with
#      cmd/squashload against a fresh single daemon (the hit-rate
#      baseline), then against a fresh 3-backend hash-routed cluster, and
#      requires each backend's result-cache hit rate to be no worse than
#      the single-daemon baseline (content sharding must keep per-backend
#      LRUs as warm as one big LRU);
#   3. kills one backend mid-replay and requires zero client-visible
#      errors (squashload exits non-zero on any failed request) plus
#      byte-identical images from the survivors;
#   4. exercises the squashctl admin plane: list, drain/undrain steering,
#      and the merged stats snapshot (saved as an artifact).
#
# Usage: scripts/cluster_smoke.sh [bench1 bench2]   (default: adpcm g721_enc)
set -euo pipefail
cd "$(dirname "$0")/.."

bench1="${1:-adpcm}"
bench2="${2:-g721_enc}"

work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "building tools..."
go build -o "$work" ./cmd/mediabench ./cmd/em-as ./cmd/em-run ./cmd/squash \
  ./cmd/squashd ./cmd/squashload ./cmd/squashrouter ./cmd/squashctl

wait_up() { # wait_up ADDR
  for _ in $(seq 50); do
    "$work/squashd" -connect "$1" -ping > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: no daemon answering at $1" >&2
  exit 1
}

echo "== preparing $bench1 and an inline workload =="
"$work/mediabench" -only "$bench1" -dir "$work"
"$work/em-as" -o "$work/$bench1.o" "$work/$bench1.s"
"$work/em-as" -link -o "$work/$bench1.exe" "$work/$bench1.s"
"$work/em-run" -in "$work/$bench1.prof.in" -profile "$work/$bench1.prof" \
  "$work/$bench1.exe" > /dev/null
"$work/squash" -profile "$work/$bench1.prof" -o "$work/$bench1.oneshot.exe" \
  "$work/$bench1.o" > /dev/null
h_one=$(sha256sum "$work/$bench1.oneshot.exe" | cut -d' ' -f1)

# Three fresh backends for the identity check.
backs=()
for i in 1 2 3; do
  sock="unix:$work/backend$i.sock"
  "$work/squashd" -listen "$sock" -serve-workers 2 2> "$work/backend$i.log" &
  pids+=($!)
  backs+=("$sock")
done
for b in "${backs[@]}"; do wait_up "$b"; done
backends_csv=$(IFS=,; echo "${backs[*]}")

# Reference image for the server-prepared benchmark item, straight from a
# backend (server-side preparation is deterministic, so every backend —
# and therefore every routed response — must reproduce these exact bytes).
"$work/squashd" -connect "${backs[0]}" -bench "$bench1" -o "$work/$bench1.ref.exe" > /dev/null
h_bench=$(sha256sum "$work/$bench1.ref.exe" | cut -d' ' -f1)

echo "== byte-identity through the router =="
front="unix:$work/router-identity.sock"
"$work/squashrouter" -listen "$front" -backends "$backends_csv" \
  -check-interval 500ms 2> "$work/router-identity.log" &
rpid=$!
pids+=($rpid)
wait_up "$front"
out="$work/identity"
mkdir -p "$out"
"$work/squashd" -connect "$front" -out-dir "$out" \
  -batch "$work/$bench1.o:$work/$bench1.prof,$work/$bench1.o:$work/$bench1.prof,$bench1" \
  > "$out/batch.out"
for img in batch-00 batch-01; do
  h=$(sha256sum "$out/$img.sqz.exe" | cut -d' ' -f1)
  if [ "$h" != "$h_one" ]; then
    echo "FAIL: routed $img differs from one-shot squash ($h vs $h_one)" >&2
    exit 1
  fi
done
h=$(sha256sum "$out/batch-02.sqz.exe" | cut -d' ' -f1)
if [ "$h" != "$h_bench" ]; then
  echo "FAIL: routed bench item differs from direct-backend output ($h vs $h_bench)" >&2
  exit 1
fi
grep -q "shared in batch" "$out/batch.out" || {
  echo "FAIL: routed batch lost within-batch sharing across the split" >&2
  exit 1
}
kill -TERM "$rpid"; wait "$rpid" || { echo "FAIL: router exited non-zero on SIGTERM" >&2; exit 1; }
echo "batch images identical to one-shot (sha256 $h_one)"

echo "== recording a seeded multi-key mix =="
rec_sock="unix:$work/recorder.sock"
stream="$work/stream.jsonl"
"$work/squashd" -listen "$rec_sock" -serve-workers 2 -record "$stream" \
  2> "$work/recorder.log" &
rec_pid=$!
pids+=($rec_pid)
wait_up "$rec_sock"
# Three distinct keys (two named benchmarks plus the inline object), four
# arrivals each, spaced so the replay window is long enough to kill a
# backend inside it.
for _ in 1 2 3 4; do
  "$work/squashd" -connect "$rec_sock" -bench "$bench1" -o "$work/seed.exe" > /dev/null
  "$work/squashd" -connect "$rec_sock" -bench "$bench2" -o "$work/seed.exe" > /dev/null
  "$work/squashd" -connect "$rec_sock" -profile "$work/$bench1.prof" \
    -o "$work/seed.exe" "$work/$bench1.o" > /dev/null
  sleep 0.4
done
kill -TERM "$rec_pid"; wait "$rec_pid" || true
echo "recorded $(wc -l < "$stream") arrivals"

echo "== single-daemon baseline replay =="
base_sock="unix:$work/baseline.sock"
"$work/squashd" -listen "$base_sock" -serve-workers 6 2> "$work/baseline.log" &
base_pid=$!
pids+=($base_pid)
wait_up "$base_sock"
"$work/squashload" -connect "$base_sock" -replay "$stream" -rate 2 -conns 2 \
  -fallback-obj "$work/$bench1.o" -fallback-profile "$work/$bench1.prof" \
  -out "$work/baseline.json"
kill -TERM "$base_pid"; wait "$base_pid" || true
base_rate=$(jq -r '.cache_hit_rate' "$work/baseline.json")
echo "baseline hit rate: $base_rate"

echo "== 3-backend hash cluster: warm replay, per-backend hit rates =="
cbacks=()
cpids=()
for i in 1 2 3; do
  sock="unix:$work/cback$i.sock"
  "$work/squashd" -listen "$sock" -serve-workers 2 2> "$work/cback$i.log" &
  cpids+=($!)
  pids+=($!)
  cbacks+=("$sock")
done
for b in "${cbacks[@]}"; do wait_up "$b"; done
cbackends_csv=$(IFS=,; echo "${cbacks[*]}")
front="unix:$work/router.sock"
admin="unix:$work/router-admin.sock"
"$work/squashrouter" -listen "$front" -admin "$admin" -backends "$cbackends_csv" \
  -check-interval 300ms -fail-after 2 2> "$work/router.log" &
router_pid=$!
pids+=($router_pid)
wait_up "$front"

"$work/squashload" -connect "$front" -replay "$stream" -rate 2 -conns 2 \
  -fallback-obj "$work/$bench1.o" -fallback-profile "$work/$bench1.prof" \
  -out "$work/cluster.json"
cluster_rate=$(jq -r '.cache_hit_rate' "$work/cluster.json")
echo "cluster aggregate hit rate: $cluster_rate (baseline $base_rate)"

# Per-backend rates straight from each backend's own stats. Backends that
# own no keys (possible with 3 keys over 3 shards) are skipped.
slack="${CLUSTER_HITRATE_SLACK:-0.02}"
for b in "${cbacks[@]}"; do
  rate=$("$work/squashd" -connect "$b" -stats | jq -r \
    'if (.squash_cache_hits + .squash_cache_misses) > 0
     then (.squash_cache_hits / (.squash_cache_hits + .squash_cache_misses))
     else "idle" end')
  echo "backend $b hit rate: $rate"
  [ "$rate" = "idle" ] && continue
  awk -v r="$rate" -v base="$base_rate" -v s="$slack" \
    'BEGIN { exit !(r >= base - s) }' || {
    echo "FAIL: backend $b hit rate $rate below single-daemon baseline $base_rate" >&2
    exit 1
  }
done

echo "== squashctl admin plane =="
"$work/squashctl" -connect "$admin" ping
"$work/squashctl" -connect "$admin" list
"$work/squashctl" -connect "$admin" drain "${cbacks[1]}" > /dev/null
"$work/squashctl" -connect "$admin" -json list > "$work/drained.json"
state=$(jq -r '.backends[1].state' "$work/drained.json")
if [ "$state" != "draining" ]; then
  echo "FAIL: backend 1 state after drain is $state, want draining" >&2
  exit 1
fi
"$work/squashctl" -connect "$admin" undrain "${cbacks[1]}" > /dev/null
"$work/squashctl" -connect "$admin" -json list > "$work/merged_stats.json"
state=$(jq -r '.backends[1].state' "$work/merged_stats.json")
if [ "$state" != "up" ]; then
  echo "FAIL: backend 1 state after undrain is $state, want up" >&2
  exit 1
fi

echo "== kill one backend mid-replay: zero client-visible errors =="
( sleep 1; kill -TERM "${cpids[2]}" ) &
killer=$!
# squashload exits non-zero when any request fails, so this line IS the
# zero-errors assertion.
"$work/squashload" -connect "$front" -replay "$stream" -rate 1 -conns 2 \
  -fallback-obj "$work/$bench1.o" -fallback-profile "$work/$bench1.prof" \
  -out "$work/cluster_kill.json"
wait "$killer"
errors=$(jq -r '.errors' "$work/cluster_kill.json")
if [ "$errors" != "0" ]; then
  echo "FAIL: $errors client-visible errors during backend kill" >&2
  exit 1
fi
# Survivors still serve byte-identical images.
mkdir -p "$work/postkill"
"$work/squashd" -connect "$front" -out-dir "$work/postkill" \
  -batch "$work/$bench1.o:$work/$bench1.prof,$bench1" > /dev/null
h=$(sha256sum "$work/postkill/batch-00.sqz.exe" | cut -d' ' -f1)
if [ "$h" != "$h_one" ]; then
  echo "FAIL: post-kill inline image differs from one-shot squash" >&2
  exit 1
fi
h=$(sha256sum "$work/postkill/batch-01.sqz.exe" | cut -d' ' -f1)
if [ "$h" != "$h_bench" ]; then
  echo "FAIL: post-kill bench image differs from direct-backend output" >&2
  exit 1
fi
"$work/squashctl" -connect "$admin" list | tee "$work/postkill_list.out"
grep -q "down" "$work/postkill_list.out" || {
  echo "FAIL: killed backend never marked down" >&2
  exit 1
}

if [ -n "${CLUSTER_SMOKE_ARTIFACTS:-}" ]; then
  mkdir -p "$CLUSTER_SMOKE_ARTIFACTS"
  cp "$work/baseline.json" "$work/cluster.json" "$work/cluster_kill.json" \
    "$work/merged_stats.json" "$work/router.log" "$CLUSTER_SMOKE_ARTIFACTS/"
fi

kill -TERM "$router_pid"; wait "$router_pid" || { echo "FAIL: router exited non-zero on SIGTERM" >&2; exit 1; }

echo "cluster smoke passed: routed images identical, failover clean, per-backend caches >= baseline"

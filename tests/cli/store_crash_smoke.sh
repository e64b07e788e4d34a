#!/usr/bin/env bash
# Crash-recovery smoke test for the durable log store, end to end through the
# shipped binaries: start lzssd with a store attached, stream appends at it
# over TCP, SIGKILL the daemon mid-append, and then prove the store on disk
# still verifies, recovers, and serves every acked record.
# Usage: store_crash_smoke.sh <build_dir>
set -euo pipefail

BUILD_DIR=$1
WORK=$(mktemp -d)
DAEMON_PID=""
trap '[ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

LZSSD="$BUILD_DIR/tools/lzssd"
CLIENT="$BUILD_DIR/tools/lzss_client"
STORE="$BUILD_DIR/tools/lzss_store"

fail() { echo "FAIL: $1" >&2; exit 1; }

STORE_DIR="$WORK/store"

# --- start the daemon on an ephemeral port with every-record durability ----
"$LZSSD" --port 0 --store-dir "$STORE_DIR" --store-fsync every-record \
         --store-segment-kb 64 > "$WORK/lzssd.log" 2>&1 &
DAEMON_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$WORK/lzssd.log" | head -n1)
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup: $(cat "$WORK/lzssd.log")"
  sleep 0.1
done
[ -n "$PORT" ] || fail "daemon never reported its port"

# --- stream appends, then SIGKILL the daemon while they are in flight ------
head -c 3000 /dev/urandom > "$WORK/rec"
touch "$WORK/acks"
(
  for i in $(seq 1 500); do
    "$CLIENT" --port "$PORT" --retries 0 log-append "$WORK/rec" >> "$WORK/acks" 2>/dev/null || exit 0
  done
) &
LOADER_PID=$!
sleep 1
kill -9 "$DAEMON_PID"
DAEMON_PID=""
wait "$LOADER_PID" 2>/dev/null || true
ACKED=$(grep -c '^seq ' "$WORK/acks" || true)
[ "$ACKED" -gt 0 ] || fail "no append was acked before the kill"

# --- the store on disk must verify: no gaps, at worst a torn tail ----------
"$STORE" verify "$STORE_DIR" > "$WORK/verify1" || fail "verify after SIGKILL: $(cat "$WORK/verify1")"
grep -q 'OK' "$WORK/verify1" || fail "verify did not report OK"

# --- recovery repairs the tail; every acked record is still there ----------
"$STORE" recover "$STORE_DIR" > "$WORK/recover" || fail "recover: $(cat "$WORK/recover")"
RECORDS=$(sed -n 's/^recovered \([0-9]*\) records.*/\1/p' "$WORK/recover")
[ -n "$RECORDS" ] || fail "recover printed no record count"
# every-record fsync: an acked append is durable, so recovery must hold at
# least as many records as the loader saw acked.
[ "$RECORDS" -ge "$ACKED" ] || fail "recovered $RECORDS records < $ACKED acked"

# --- the recovered store accepts appends and round-trips them --------------
"$STORE" append "$STORE_DIR" "$WORK/rec" > "$WORK/append" || fail "append after recovery"
NEWSEQ=$(sed -n 's/^appended seq \([0-9]*\).*/\1/p' "$WORK/append")
"$STORE" cat "$STORE_DIR" --seq "$NEWSEQ" > "$WORK/readback" || fail "cat after recovery"
cmp "$WORK/rec" "$WORK/readback" || fail "post-recovery append did not round-trip"

"$STORE" verify "$STORE_DIR" > "$WORK/verify2" || fail "final verify"
grep -q ' 0 torn tail bytes' "$WORK/verify2" || fail "torn tail survived recovery"

echo "store crash smoke OK ($ACKED acked before kill, $RECORDS recovered, new seq $NEWSEQ)"

# ===========================================================================
# Phase 2: the self-healing lifecycle under a mid-compaction SIGKILL.
#
# Build a gappy store offline, arm the crash fault point inside a live lzssd
# so the maintenance thread dies between staging the compacted image and the
# atomic rename, SIGKILL it there, and prove (a) recovery loses nothing,
# (b) a healthy restart finishes the compaction on its own, (c) SCRUB and
# VERIFY round-trip over the wire, and (d) the final store verifies clean.
# ===========================================================================

wait_for_port() {  # $1 = log file, $2 = pid; echoes the port
  local port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$1" | head -n1)
    [ -n "$port" ] && break
    kill -0 "$2" 2>/dev/null || fail "daemon died at startup: $(cat "$1")"
    sleep 0.1
  done
  [ -n "$port" ] || fail "daemon never reported its port"
  echo "$port"
}

GAPPY="$WORK/gappy"

# --- seed a multi-segment store offline with deterministic payloads --------
for i in $(seq 1 40); do
  printf 'record-%03d-' "$i" > "$WORK/p$i"
  head -c 600 /dev/urandom >> "$WORK/p$i"  # incompressible: stored raw, so
                                           # tiny segments seal quickly
  "$STORE" append "$GAPPY" "$WORK/p$i" --fsync never --segment-kb 2 > /dev/null \
    || fail "seeding append $i"
done
SEGS=$(ls "$GAPPY"/seg-*.lzseg | sort)
SEG_COUNT=$(echo "$SEGS" | wc -l)
[ "$SEG_COUNT" -ge 3 ] || fail "expected >=3 segments from the seed, got $SEG_COUNT"

# --- flip one payload byte in a sealed segment, quarantine it --------------
VICTIM=$(echo "$SEGS" | sed -n 2p)
dd if=/dev/zero of="$VICTIM" bs=1 seek=70 count=1 conv=notrunc 2>/dev/null
"$STORE" recover "$GAPPY" > "$WORK/recover2" || true  # gaps expected: rc 1
grep -q 'gap' "$WORK/recover2" || fail "corruption was not quarantined: $(cat "$WORK/recover2")"
# A plain reopen reports the same quarantined gap again.
"$STORE" recover "$GAPPY" > "$WORK/recover2b" && fail "reopen lost the gap: $(cat "$WORK/recover2b")"
grep 'gap' "$WORK/recover2" > "$WORK/gaps2"
grep 'gap' "$WORK/recover2b" > "$WORK/gaps2b" || true
cmp -s "$WORK/gaps2" "$WORK/gaps2b" \
  || fail "reopen reported different gaps: $(cat "$WORK/recover2b")"

# --- snapshot the surviving records; note the first lost sequence ----------
: > "$WORK/live"
LOST=""
for seq in $(seq 1 40); do
  if "$STORE" cat "$GAPPY" --seq "$seq" > "$WORK/snap$seq" 2>/dev/null; then
    echo "$seq" >> "$WORK/live"
  else
    [ -n "$LOST" ] || LOST=$seq
  fi
done
[ -s "$WORK/live" ] || fail "no live records survived the quarantine"
[ -n "$LOST" ] || fail "the corruption lost no record — nothing to compact around"

# --- SIGKILL lzssd while a compaction sits between stage and rename --------
"$LZSSD" --port 0 --store-dir "$GAPPY" --store-fsync never --store-segment-kb 2 \
         --compact-trigger-garbage-pct 1 --maintenance-tick-ms 50 \
         --arm-fault store.compact.crash=delay:2000 > "$WORK/lzssd2.log" 2>&1 &
DAEMON_PID=$!
PORT=$(wait_for_port "$WORK/lzssd2.log" "$DAEMON_PID")
sleep 1  # tick=50ms: the compacted image is staged and the rename is parked
kill -9 "$DAEMON_PID"
DAEMON_PID=""

# --- recovery after the crash: every live record intact, the gap stays -----
"$STORE" recover "$GAPPY" > "$WORK/recover3" || true
while read -r seq; do
  "$STORE" cat "$GAPPY" --seq "$seq" > "$WORK/post$seq" 2>/dev/null \
    || fail "live seq $seq lost to the mid-compaction crash"
  cmp -s "$WORK/snap$seq" "$WORK/post$seq" \
    || fail "live seq $seq changed across the mid-compaction crash"
done < "$WORK/live"
if "$STORE" cat "$GAPPY" --seq "$LOST" > /dev/null 2>&1; then
  fail "quarantined seq $LOST resurrected by the crash"
fi

# --- healthy restart: maintenance finishes the compaction on its own -------
"$LZSSD" --port 0 --store-dir "$GAPPY" --store-fsync never --store-segment-kb 2 \
         --compact-trigger-garbage-pct 1 --maintenance-tick-ms 50 \
         --scrub-interval-s 1 > "$WORK/lzssd3.log" 2>&1 &
DAEMON_PID=$!
PORT=$(wait_for_port "$WORK/lzssd3.log" "$DAEMON_PID")
COMPACTIONS=""
for _ in $(seq 1 50); do
  COMPACTIONS=$("$CLIENT" --port "$PORT" stats 2>/dev/null \
    | sed -n 's/.*"store_compactions_total"[^}]*"value":\([0-9]*\).*/\1/p')
  [ -n "$COMPACTIONS" ] && [ "$COMPACTIONS" -ge 1 ] && break
  sleep 0.2
done
[ -n "$COMPACTIONS" ] && [ "$COMPACTIONS" -ge 1 ] \
  || fail "background compaction never ran: $(cat "$WORK/lzssd3.log")"

# --- SCRUB and VERIFY round-trip over the wire -----------------------------
"$CLIENT" --port "$PORT" scrub > "$WORK/scrub.json" \
  || fail "online scrub reported damage: $(cat "$WORK/scrub.json")"
FIRST_LIVE=$(head -n1 "$WORK/live")
"$CLIENT" --port "$PORT" verify-seq "$FIRST_LIVE" > "$WORK/verify-live.json" \
  || fail "verify-seq of a live record: $(cat "$WORK/verify-live.json")"
if "$CLIENT" --port "$PORT" verify-seq "1:40" > "$WORK/verify-all.json" 2>&1; then
  fail "verify-seq over the quarantined gap claimed clean: $(cat "$WORK/verify-all.json")"
fi
grep -q '"gap":0' "$WORK/verify-all.json" && fail "verify-seq reported no gap"

# --- graceful shutdown; the healed store verifies clean offline ------------
kill -INT "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
"$STORE" verify "$GAPPY" > "$WORK/verify3" \
  || fail "healed store does not verify clean: $(cat "$WORK/verify3")"
while read -r seq; do
  "$STORE" cat "$GAPPY" --seq "$seq" > "$WORK/final$seq" 2>/dev/null \
    || fail "live seq $seq missing after the full lifecycle"
  cmp -s "$WORK/snap$seq" "$WORK/final$seq" \
    || fail "live seq $seq changed across the full lifecycle"
done < "$WORK/live"

LIVE_COUNT=$(wc -l < "$WORK/live")
echo "store compaction crash smoke OK ($LIVE_COUNT live records held through" \
     "kill-during-compaction, $COMPACTIONS background compaction(s), seq $LOST stayed quarantined)"

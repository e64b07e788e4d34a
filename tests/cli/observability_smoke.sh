#!/usr/bin/env bash
# Observability smoke test, end to end through the shipped binaries: start
# lzssd with the full telemetry surface armed (HTTP sidecar, always-on
# tracing, slow-trace keep-ring, event log), drive traced traffic with
# lzss_client --trace, and prove
#   (a) /healthz, /metrics, /trace, /trace/slow and /events answer live,
#   (b) the client-chosen trace id appears in the scraped span tree and the
#       client prints it from the echoed LZRS extension,
#   (c) the /metrics exposition passes scripts/metrics_lint.py,
#   (d) the STATS JSON survives a python3 -m json.tool round trip,
#   (e) SIGUSR1 dumps Prometheus text + trace JSONL from the live daemon,
#   (f) the event log JSONL is one parseable object per line.
# Usage: observability_smoke.sh <build_dir>
set -euo pipefail

BUILD_DIR=$1
SOURCE_DIR=$(cd "$(dirname "$0")/../.." && pwd)
WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

LZSSD="$BUILD_DIR/tools/lzssd"
CLIENT="$BUILD_DIR/tools/lzss_client"
LINT="$SOURCE_DIR/scripts/metrics_lint.py"

fail() { echo "FAIL: $1" >&2; exit 1; }

# Raw HTTP/1.0 GET via /dev/tcp: returns the response body on stdout.
http_get() {
  local port=$1 path=$2
  exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
  # Body starts after the first blank line.
  sed -e '1,/^\r*$/d' <&3
  exec 3<&- 3>&-
}

# --- start the daemon with every telemetry surface armed --------------------
"$LZSSD" --port 0 --http-port 0 --trace-sample 1 --slow-trace-ms 0 \
         --block-kb 16 --events-jsonl "$WORK/events.jsonl" --metrics-dump \
         --trace-jsonl "$WORK/trace_dump.jsonl" \
         > "$WORK/lzssd.log" 2>&1 &
DAEMON_PID=$!

PORT="" HTTP_PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$WORK/lzssd.log" | head -n1)
  HTTP_PORT=$(sed -n 's|.*telemetry on http://127.0.0.1:\([0-9]*\).*|\1|p' "$WORK/lzssd.log" | head -n1)
  [ -n "$PORT" ] && [ -n "$HTTP_PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup: $(cat "$WORK/lzssd.log")"
  sleep 0.1
done
[ -n "$PORT" ] || fail "daemon never reported its data port"
[ -n "$HTTP_PORT" ] || fail "daemon never reported its telemetry port"

# --- drive traced traffic ---------------------------------------------------
head -c 65536 /dev/urandom > "$WORK/payload"
for i in 1 2 3; do
  "$CLIENT" --port "$PORT" --trace -o "$WORK/payload.z" compress-blocked "$WORK/payload" \
    > /dev/null 2> "$WORK/client_trace.$i" || fail "traced compress #$i"
done
TRACE_ID=$(sed -n 's/^trace \([0-9a-f]\{16\}\).*/\1/p' "$WORK/client_trace.3")
[ -n "$TRACE_ID" ] || fail "client did not print its echoed trace id: $(cat "$WORK/client_trace.3")"

# --- (a) the scrape plane answers live --------------------------------------
HEALTH=$(http_get "$HTTP_PORT" /healthz) || fail "GET /healthz"
[ "$HEALTH" = "ok" ] || fail "unexpected /healthz body: $HEALTH"

http_get "$HTTP_PORT" /metrics > "$WORK/metrics.txt" || fail "GET /metrics"
grep -q '^# TYPE server_requests_total counter' "$WORK/metrics.txt" \
  || fail "/metrics is not a Prometheus exposition"

http_get "$HTTP_PORT" /trace > "$WORK/trace.jsonl" || fail "GET /trace"
http_get "$HTTP_PORT" /trace/slow > "$WORK/trace_slow.jsonl" || fail "GET /trace/slow"
http_get "$HTTP_PORT" /events > "$WORK/events_live.jsonl" || fail "GET /events"

# --- (b) the client's trace id is in the live span tree ---------------------
grep -q "$TRACE_ID" "$WORK/trace.jsonl" \
  || fail "client trace id $TRACE_ID absent from GET /trace"
grep -q '"name":"request.compress_blocked"' "$WORK/trace.jsonl" \
  || fail "no request-root span in GET /trace"
grep -q '"name":"engine.encode"' "$WORK/trace.jsonl" \
  || fail "no engine span in GET /trace"
# The exemplar ties the latency histogram back to a concrete trace.
grep -q 'trace_id="' "$WORK/metrics.txt" || fail "no exemplar in /metrics"

# --- (c) the exposition passes the naming lint ------------------------------
python3 "$LINT" "$WORK/metrics.txt" || fail "metrics_lint rejected /metrics"

# --- (d) STATS JSON round-trips through a strict parser ---------------------
"$CLIENT" --port "$PORT" stats > "$WORK/stats.json" || fail "STATS request"
python3 -m json.tool "$WORK/stats.json" > /dev/null \
  || fail "STATS payload is not strict JSON"

# --- (e) SIGUSR1 dumps telemetry from the live daemon -----------------------
# lzssd prints the Prometheus text first, then writes the trace file and
# logs "trace: ... written to <path>" only after fclose. Until that line, the
# file may hold only the blocks stdio has flushed so far, and the dump on
# stdout may be partial too, so nothing is checked before it.
kill -USR1 "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q "^trace: .* written to $WORK/trace_dump.jsonl" "$WORK/lzssd.log" && break
  sleep 0.1
done
grep -q "^trace: .* written to $WORK/trace_dump.jsonl" "$WORK/lzssd.log" \
  || fail "SIGUSR1 never reported its trace JSONL written"
[ -s "$WORK/trace_dump.jsonl" ] || fail "SIGUSR1 produced no trace JSONL"
grep -q "$TRACE_ID" "$WORK/trace_dump.jsonl" \
  || fail "SIGUSR1 trace dump is missing the traced request"
grep -q '^# TYPE server_latency_us histogram' "$WORK/lzssd.log" \
  || fail "SIGUSR1 produced no Prometheus dump on stdout"
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on SIGUSR1"

# A post-dump request proves the daemon kept serving.
"$CLIENT" --port "$PORT" --retries 0 ping > /dev/null || fail "ping after SIGUSR1"

# --- (f) the event-log stream is parseable JSONL ----------------------------
# Event emission is load-dependent (evictions, brownouts, maintenance); an
# empty file is legal here, but any present line must be a JSON object.
if [ -s "$WORK/events.jsonl" ]; then
  python3 - "$WORK/events.jsonl" <<'PY' || fail "events.jsonl has malformed lines"
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    for line in f:
        if line.strip():
            obj = json.loads(line)
            assert "ts_us" in obj and "level" in obj and "event" in obj, obj
PY
fi

# --- clean shutdown ----------------------------------------------------------
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
DAEMON_PID=""
[ "$RC" -eq 0 ] || fail "daemon exited rc=$RC on SIGTERM: $(cat "$WORK/lzssd.log")"

SPANS=$(wc -l < "$WORK/trace.jsonl")
echo "observability smoke OK (trace $TRACE_ID, $SPANS live spans, metrics lint clean)"

#!/usr/bin/env bash
# TyCOmon smoke test: launch tycosh with --monitor on an ephemeral port
# (plus :profile and tail-based flight retention), scrape /metrics,
# /healthz, /trace, /flight and /profile while (or right after) a
# threaded two-site RPC run executes — including two concurrent
# keep-alive scrapers — and assert each endpoint answers with real
# content. Used by CI; run locally as tools/monitor_smoke.sh [tycosh],
# default build/tools/tycosh.
set -u

TYCOSH="${1:-build/tools/tycosh}"
if [ ! -x "$TYCOSH" ]; then
  echo "monitor_smoke: no tycosh binary at $TYCOSH" >&2
  exit 2
fi

OUT="$(mktemp)"
trap 'kill "$PID" 2>/dev/null; rm -f "$OUT"' EXIT

PROG='site server { export new svc in
  def Serve(self) = self?{ val(x, r) = (r![x + 1] | Serve[self]) }
  in Serve[svc] }
site client { import svc from server in
  def Loop(i, acc) = if i == 0 then print["done", acc]
  else let v = svc![acc] in Loop[i - 1, v]
  in Loop[2000, 0] }'

"$TYCOSH" --mode threads --monitor 0 --linger 4000 :profile \
  --flight-slow-us 1 -e "$PROG" >"$OUT" 2>&1 &
PID=$!

# Wait for the "tycomon listening on http://127.0.0.1:<port>" line.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's#^tycomon listening on http://127.0.0.1:\([0-9]*\)$#\1#p' "$OUT")"
  [ -n "$PORT" ] && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "monitor_smoke: tycosh exited before announcing a port:" >&2
    cat "$OUT" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "monitor_smoke: no port announced" >&2
  cat "$OUT" >&2
  exit 1
fi
echo "monitor_smoke: scraping port $PORT"

fail=0

METRICS="$(curl -sf "http://127.0.0.1:$PORT/metrics")" || fail=1
if ! printf '%s' "$METRICS" | grep -q '^site_msgs_shipped'; then
  echo "monitor_smoke: /metrics missing site_msgs_shipped:" >&2
  printf '%s\n' "$METRICS" | head -20 >&2
  fail=1
fi

HEALTH="$(curl -sf "http://127.0.0.1:$PORT/healthz")" || fail=1
if ! printf '%s' "$HEALTH" | grep -q '"sites"'; then
  echo "monitor_smoke: /healthz missing sites array: $HEALTH" >&2
  fail=1
fi

TRACE="$(curl -sf "http://127.0.0.1:$PORT/trace")" || fail=1
if ! printf '%s' "$TRACE" | grep -q '"traceEvents"'; then
  echo "monitor_smoke: /trace is not Chrome trace JSON" >&2
  fail=1
fi

JSON="$(curl -sf "http://127.0.0.1:$PORT/metrics.json")" || fail=1
if ! printf '%s' "$JSON" | grep -q '"counters"'; then
  echo "monitor_smoke: /metrics.json missing counters object" >&2
  fail=1
fi

FLIGHT="$(curl -sf "http://127.0.0.1:$PORT/flight")" || fail=1
if ! printf '%s' "$FLIGHT" | grep -q '"traceEvents"'; then
  echo "monitor_smoke: /flight is not Chrome trace JSON" >&2
  fail=1
fi

# The profiler samples once per 1024 instructions of a site, so the
# first folded stack appears some way into the run: poll for it.
PROFILE=""
for _ in $(seq 1 50); do
  PROFILE="$(curl -sf "http://127.0.0.1:$PORT/profile")" || { fail=1; break; }
  printf '%s' "$PROFILE" | grep -q ';' && break
  sleep 0.1
done
if ! printf '%s' "$PROFILE" | grep -q ';'; then
  echo "monitor_smoke: /profile has no folded stacks:" >&2
  printf '%s\n' "$PROFILE" | head -5 >&2
  fail=1
fi

# Keep-alive: two requests down one connection must both answer (the
# second would hang forever on a close-per-request server).
KEEP="$(curl -sf "http://127.0.0.1:$PORT/healthz" "http://127.0.0.1:$PORT/healthz")" || fail=1
if [ "$(printf '%s' "$KEEP" | grep -o '"sites"' | wc -l)" -ne 2 ]; then
  echo "monitor_smoke: keep-alive reuse did not answer twice" >&2
  fail=1
fi

# Worker pool: two concurrent scrapers, each holding its own persistent
# connection, must both complete.
curl -sf "http://127.0.0.1:$PORT/metrics" "http://127.0.0.1:$PORT/trace" >/dev/null &
C1=$!
curl -sf "http://127.0.0.1:$PORT/healthz" "http://127.0.0.1:$PORT/flight" >/dev/null &
C2=$!
wait "$C1" || { echo "monitor_smoke: concurrent scraper 1 failed" >&2; fail=1; }
wait "$C2" || { echo "monitor_smoke: concurrent scraper 2 failed" >&2; fail=1; }

wait "$PID"
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "monitor_smoke: tycosh exited with $STATUS:" >&2
  cat "$OUT" >&2
  fail=1
fi
if ! grep -q 'done 2000' "$OUT"; then
  echo "monitor_smoke: run did not finish the RPC loop:" >&2
  cat "$OUT" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "monitor_smoke: OK (metrics, metrics.json, healthz, trace, flight, profile, keep-alive)"
fi
exit "$fail"

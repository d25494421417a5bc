#!/usr/bin/env bash
# Fleet observability smoke test: launch three real tycod processes on
# loopback, each with TyCOmon and transport tracing on (--monitor 0
# --trace), run cross-process FETCHes from two clients against node 0,
# then point tycotop at ONE monitor URL and assert that gossip-driven
# discovery reaches all three nodes and that the merged Perfetto
# timeline holds spans from all three processes, FETCH spans on at
# least two of them, a cross-process flow arrow (one trace id with a
# flow start and finish on different pids), and thread lines named
# node<N>/tycod, node<N>/tcp or after a site.
#
# The run also exercises the GC credit audit plane end to end: node 0
# drops its first outbound REL frame (--drop-rel 1 — the release of a
# client's reply channel), so `tycotop --audit` must flag the owner's
# entry as rel_lost while the loss is live, node 0's own audit tick
# (--audit-ms, with --gc-resend-ms) must retransmit the cumulative REL
# and heal it, and the fleet must audit balanced again — with node 0's
# gc_audit_imbalance counter recording that the anomaly was seen.
# Used by CI; run locally as tools/fleet_smoke.sh [tycod] [tycotop].
set -u

TYCOD="${1:-build/tools/tycod}"
TYCOTOP="${2:-build/tools/tycotop}"
for bin in "$TYCOD" "$TYCOTOP"; do
  if [ ! -x "$bin" ]; then
    echo "fleet_smoke: no binary at $bin" >&2
    exit 2
  fi
done

OUT0="$(mktemp)"
OUT1="$(mktemp)"
OUT2="$(mktemp)"
MERGED="$(mktemp)"
TOPJSON="$(mktemp)"
AUDIT="$(mktemp)"
trap 'kill "$PID0" "$PID1" "$PID2" 2>/dev/null;
      rm -f "$OUT0" "$OUT1" "$OUT2" "$MERGED" "$TOPJSON" "$AUDIT"' EXIT

fail=0

scrape() {
  # Scrape the first match of sed pattern $2 from log $1 while pid $3
  # stays alive.
  local log="$1" pat="$2" pid="$3" got=""
  for _ in $(seq 1 100); do
    got="$(sed -n "$pat" "$log" | head -n 1)"
    [ -n "$got" ] && { echo "$got"; return 0; }
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

wait_port() {
  scrape "$1" 's#^tycod node[0-9]* listening on 127\.0\.0\.1:\([0-9]*\)$#\1#p' "$2"
}

wait_mon() {
  scrape "$1" 's#^tycomon listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$2"
}

# ---------------------------------------------------------------------
# Three traced daemons: node 0 serves, nodes 1 and 2 FETCH from it
# ---------------------------------------------------------------------

# Audit fast, heal slow: every daemon audits its ledgers every 250 ms of
# idle time but only retransmits cumulative RELs on the 1200 ms resend
# timer, so a dropped REL is observed (and counted) strictly before the
# next resend interval heals it.
COMMON="--monitor 0 --trace --idle-exit-ms 6000 --serve-ms 30000 \
  --gc-resend-ms 1200 --audit-ms 250"

# Node 0 eats its first outbound REL, as if the wire lost it: the fleet
# audit must flag the resulting imbalance, and node 0's next audit tick
# retransmits the cumulative ledger and heals it.
# shellcheck disable=SC2086
"$TYCOD" --node 0 --drop-rel 1 $COMMON -e \
  'site server { export def Applet(out) = out![7] in
     export new p in p?{ val(x, rep) = rep![x * 2] } }' >"$OUT0" 2>&1 &
PID0=$!
MON0="$(wait_mon "$OUT0" "$PID0")" || {
  echo "fleet_smoke: node 0 never announced a monitor:" >&2
  cat "$OUT0" >&2
  exit 1
}
PORT0="$(wait_port "$OUT0" "$PID0")" || {
  echo "fleet_smoke: node 0 never announced a port:" >&2
  cat "$OUT0" >&2
  exit 1
}
echo "fleet_smoke: node 0 transport :$PORT0 monitor :$MON0"

# shellcheck disable=SC2086
"$TYCOD" --node 1 --join "127.0.0.1:$PORT0" $COMMON -e \
  'site client { import Applet from server in import p from server in
     new r (Applet[r] | r?(v) = let z = p![v * 3] in print[z + v]) }' \
  >"$OUT1" 2>&1 &
PID1=$!
# shellcheck disable=SC2086
"$TYCOD" --node 2 --join "127.0.0.1:$PORT0" $COMMON -e \
  'site viewer { import Applet from server in
     new r (Applet[r] | r?(v) = print[v]) }' >"$OUT2" 2>&1 &
PID2=$!

MON1="$(wait_mon "$OUT1" "$PID1")" || {
  echo "fleet_smoke: node 1 never announced a monitor:" >&2
  cat "$OUT1" >&2
  exit 1
}
MON2="$(wait_mon "$OUT2" "$PID2")" || {
  echo "fleet_smoke: node 2 never announced a monitor:" >&2
  cat "$OUT2" >&2
  exit 1
}
echo "fleet_smoke: node 1 monitor :$MON1, node 2 monitor :$MON2"

# ---------------------------------------------------------------------
# Credit audit: dropped REL -> flagged -> healed
# ---------------------------------------------------------------------

# Phase 1: catch the loss while it is live. The window closes when the
# next gc_resend_ms interval (1200 ms) retransmits the cumulative REL,
# so poll tightly from the start. A confirmed rel_lost offender makes
# tycotop --audit exit nonzero with the (owner, entry) in its JSON.
imb=0
for _ in $(seq 1 120); do
  if ! "$TYCOTOP" --audit --json "http://127.0.0.1:$MON0" >"$AUDIT" \
      2>/dev/null && grep -q '"why":"rel_lost"' "$AUDIT"; then
    imb=1
    break
  fi
  sleep 0.1
done
if [ "$imb" -ne 1 ]; then
  echo "fleet_smoke: auditor never flagged the dropped REL; last report:" >&2
  cat "$AUDIT" >&2
  exit 1
fi
# The offender names the specific (owner, entry) whose credit lags.
OWNER="$(sed -n 's/.*"owner_node":\([0-9]*\).*/\1/p' "$AUDIT" | head -n 1)"
if [ -z "$OWNER" ]; then
  echo "fleet_smoke: rel_lost offender carries no owner:" >&2
  cat "$AUDIT" >&2
  exit 1
fi
echo "fleet_smoke: auditor flagged the dropped REL (owner node $OWNER)"

# Phase 2: the next resend interval heals the loss (cumulative resend
# is idempotent at the owner); the fleet must audit balanced again
# within roughly one gc_resend_ms interval.
healed=0
for _ in $(seq 1 100); do
  if "$TYCOTOP" --audit "http://127.0.0.1:$MON0" >"$AUDIT" 2>/dev/null; then
    healed=1
    break
  fi
  sleep 0.1
done
if [ "$healed" -ne 1 ]; then
  echo "fleet_smoke: imbalance never healed; last report:" >&2
  cat "$AUDIT" >&2
  exit 1
fi
echo "fleet_smoke: audit healed -> balanced"

# The anomaly left its mark: node 0 counted it on gc_audit_imbalance.
"$TYCOTOP" --metrics - "http://127.0.0.1:$MON0" 2>/dev/null |
  grep 'gc_audit_imbalance{node="0"}' | grep -qv ' 0$' || {
  echo "fleet_smoke: node 0 never counted the imbalance" >&2
  fail=1
}

# ---------------------------------------------------------------------
# tycotop: one seed URL -> whole fleet, one merged timeline
# ---------------------------------------------------------------------

# The daemons print their program output only on exit, so poll the
# aggregator itself (while the fleet is in its idle-exit window) until
# discovery reaches all three nodes and a FETCH has been stitched
# across a process boundary.
ok=0
for _ in $(seq 1 50); do
  if "$TYCOTOP" --json "http://127.0.0.1:$MON0" >"$TOPJSON" 2>/dev/null &&
     grep -q '"node":1' "$TOPJSON" && grep -q '"node":2' "$TOPJSON" &&
     grep -q '"FETCH"' "$TOPJSON"; then
    ok=1
    break
  fi
  sleep 0.2
done
if [ "$ok" -ne 1 ]; then
  echo "fleet_smoke: fleet never converged; last tycotop --json:" >&2
  cat "$TOPJSON" >&2
  exit 1
fi
"$TYCOTOP" --trace "$MERGED" "http://127.0.0.1:$MON0" || {
  echo "fleet_smoke: tycotop --trace failed" >&2; exit 1; }

python3 - "$TOPJSON" "$MERGED" <<'EOF' || fail=1
import json, sys
top = json.load(open(sys.argv[1]))
nodes = sorted(n["node"] for n in top["nodes"])
assert nodes == [0, 1, 2], f"discovery from one seed found nodes {nodes}"

doc = json.load(open(sys.argv[2]))
events = doc["traceEvents"]
pids = {e["pid"] for e in events if e.get("ph") != "M"}
assert pids >= {0, 1, 2}, f"merged timeline pids {sorted(pids)}"

fetch_pids = {e["pid"] for e in events
              if e.get("name", "").startswith("FETCH")}
assert len(fetch_pids) >= 2, \
    f"FETCH spans on one side only: pids {sorted(fetch_pids)}"

# A cross-process flow arrow: one flow id whose start (ph=s) and finish
# (ph=f) landed on different pids.
starts = {e["id"]: e["pid"] for e in events if e.get("ph") == "s"}
crossed = [i for i, p in starts.items()
           for e in events
           if e.get("ph") == "f" and e.get("id") == i and e["pid"] != p]
assert crossed, "no flow arrow crosses a process boundary"

# Every thread line carries the one naming rule: the daemon, the TCP
# transport, or a site (a program identifier).
import re
line_name = re.compile(r"node[0-9]+/(tycod|tcp)|[A-Za-z_][A-Za-z0-9_$]*")
names = [e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "thread_name"]
assert names, "merged timeline names no thread lines"
bad = [n for n in names if not line_name.fullmatch(n)]
assert not bad, f"thread lines outside the naming rule: {bad}"
print(f"fleet_smoke: merged {len(events)} events across pids "
      f"{sorted(pids)}, {len(crossed)} cross-process flow(s), "
      f"{len(names)} named thread lines")
EOF
[ "$fail" -ne 0 ] && { echo "fleet_smoke: merged trace assertions failed" >&2
                       cat "$TOPJSON" >&2; }

# The daemons idle out and exit cleanly with empty export tables.
wait "$PID1"; S1=$?
wait "$PID2"; S2=$?
wait "$PID0"; S0=$?
if [ "$S0" -ne 0 ] || [ "$S1" -ne 0 ] || [ "$S2" -ne 0 ]; then
  echo "fleet_smoke: daemons exited $S0/$S1/$S2:" >&2
  cat "$OUT0" "$OUT1" "$OUT2" >&2
  fail=1
fi
grep -qF '[client] 49' "$OUT1" || {
  echo "fleet_smoke: client output missing:" >&2; cat "$OUT1" >&2; fail=1; }
grep -qF '[viewer] 7' "$OUT2" || {
  echo "fleet_smoke: viewer output missing:" >&2; cat "$OUT2" >&2; fail=1; }
grep -q 'exports_live=0' "$OUT0" || {
  echo "fleet_smoke: node 0 leaked exports:" >&2; cat "$OUT0" >&2; fail=1; }

if [ "$fail" -eq 0 ]; then
  echo "fleet_smoke: OK (3 nodes discovered from 1 seed, stitched trace)"
fi
exit "$fail"

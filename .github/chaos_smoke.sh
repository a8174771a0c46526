#!/usr/bin/env bash
# chaos_smoke.sh — elastic-cluster chaos drill on the real linksynthd
# binary. A 3-node cluster with -replicas 2 takes sustained {base, delta}
# traffic; one node is killed (-9, no graceful leave) mid-traffic and a
# replacement joins via -join. The gate:
#
#   * zero wrong bytes — every response during and after the chaos is
#     byte-identical to a single-node golden run of the same requests
#   * zero re-solves on the survivors for replicated fingerprints — the
#     dead owner's keys are answered warm from replicas (cache hits and
#     locally restored sessions), never cold
#   * bounded tail latency — p99 across the chaos window stays under
#     CHAOS_P99_BUDGET_MS (default 5000; generous, the point is that the
#     successor-chain walk never strands a request on a dead node)
#
# Emits CHAOS.json with the run's numbers for the artifact trail.
#
# Usage: ./.github/chaos_smoke.sh   (from the repository root)
# Env:   LINKSYNTHD=/path/to/binary to skip the build.
set -euo pipefail

BIN="${LINKSYNTHD:-/tmp/linksynthd-chaos}"
if [ ! -x "$BIN" ]; then
  go build -race -o "$BIN" ./cmd/linksynthd
fi

N="${CHAOS_FINGERPRINTS:-6}"      # distinct base fingerprints
ROUNDS="${CHAOS_ROUNDS:-3}"       # chaos traffic rounds over all keys
P99_BUDGET_MS="${CHAOS_P99_BUDGET_MS:-5000}"

work="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

wait_healthy() {
  for _ in $(seq 1 75); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "chaos: node $1 never became healthy" >&2
  return 1
}

metric() { curl -fsS "$1/metrics" | awk -v m="linksynthd_$2" '$1==m {print $2; found=1} END {if (!found) print 0}'; }

wait_metric_at_least() { # url name want
  for _ in $(seq 1 150); do
    if [ "$(metric "$1" "$2")" -ge "$3" ]; then return 0; fi
    sleep 0.2
  done
  echo "chaos: $1 metric $2 never reached $3 (have $(metric "$1" "$2"))" >&2
  return 1
}

mk_inst() { sed "s/\"seed\": 1/\"seed\": $1/" .github/smoke/solve.json; }

post() { # url body-file out-file -> appends latency_ms to $work/latencies
  local t
  t=$(curl -fsS -w '%{time_total}' -o "$3" -X POST -H 'Content-Type: application/json' \
    -d @"$2" "$1/v1/solve")
  awk -v t="$t" 'BEGIN {printf "%d\n", t * 1000}' >> "$work/latencies"
}

# ---------------------------------------------------------------- golden
# A single clusterless node answers every request the chaos run will send;
# its bodies are the byte-identity reference. Fingerprints vary by seed
# (the seed is part of the fingerprint), deltas edit a cell — structure
# preserving, so replicated sessions re-solve them warm.
gport=$(( (RANDOM % 5000) + 21000 ))
gurl="http://127.0.0.1:${gport}"
"$BIN" -addr "127.0.0.1:${gport}" -data-dir "$work/golden" &
gpid=$!; pids+=("$gpid")
wait_healthy "$gurl"
: > "$work/latencies"
for i in $(seq 1 "$N"); do
  mk_inst "$i" > "$work/inst-$i.json"
  curl -fsS -o "$work/golden-base-$i" -X POST -H 'Content-Type: application/json' \
    -d @"$work/inst-$i.json" "$gurl/v1/solve"
  key=$(sed -n 's/.*"key":"\([0-9a-f]\{64\}\)".*/\1/p' "$work/golden-base-$i")
  test -n "$key"
  printf '{"base":"%s","delta":{"r1_edits":[{"row":0,"col":"Rel","val":"Spouse"}]}}' "$key" \
    > "$work/delta-$i.json"
  curl -fsS -o "$work/golden-delta-$i" -X POST -H 'Content-Type: application/json' \
    -d @"$work/delta-$i.json" "$gurl/v1/solve"
done
kill -9 "$gpid"; wait "$gpid" 2>/dev/null || true

# ----------------------------------------------------------- the cluster
p1=$(( gport + 1 )); p2=$(( gport + 2 )); p3=$(( gport + 3 )); p4=$(( gport + 4 ))
n1="http://127.0.0.1:${p1}"; n2="http://127.0.0.1:${p2}"
n3="http://127.0.0.1:${p3}"; n4="http://127.0.0.1:${p4}"
for i in 1 2 3; do
  port_var="p$i"; url_var="n$i"
  "$BIN" -addr "127.0.0.1:${!port_var}" -advertise "${!url_var}" \
    -peers "$n1,$n2,$n3" -replicas 2 -probe-interval 250ms \
    -data-dir "$work/node$i" &
  pids+=("$!")
  eval "pid$i=$!"
done
for url in "$n1" "$n2" "$n3"; do wait_healthy "$url"; done

# Seed: every base and delta once, spread over the entry nodes.
urls=("$n1" "$n2" "$n3")
for i in $(seq 1 "$N"); do
  entry="${urls[$(( i % 3 ))]}"
  post "$entry" "$work/inst-$i.json" "$work/seed-base-$i"
  cmp "$work/seed-base-$i" "$work/golden-base-$i"
  post "$entry" "$work/delta-$i.json" "$work/seed-delta-$i"
  cmp "$work/seed-delta-$i" "$work/golden-delta-$i"
done

# Replication convergence: with 3 nodes and K=2 every node ends up holding
# every entry — N bases plus N patched-delta keys each.
for url in "$n1" "$n2" "$n3"; do
  wait_metric_at_least "$url" cache_entries $(( 2 * N ))
  wait_metric_at_least "$url" store_sessions "$N"
done

# ------------------------------------------------------------- the chaos
# Kill node 1 outright, then keep the same traffic flowing through the
# survivors. Everything must stay byte-identical and warm: the survivors'
# solver never runs again for these fingerprints.
runs2=$(metric "$n2" solver_runs_total); runs3=$(metric "$n3" solver_runs_total)
cold2=$(metric "$n2" incr_cold_solves_total); cold3=$(metric "$n3" incr_cold_solves_total)
kill -9 "$pid1"; wait "$pid1" 2>/dev/null || true

wrong=0
for _ in $(seq 1 "$ROUNDS"); do
  for i in $(seq 1 "$N"); do
    for entry in "$n2" "$n3"; do
      post "$entry" "$work/inst-$i.json" "$work/chaos-base"
      cmp -s "$work/chaos-base" "$work/golden-base-$i" || wrong=$(( wrong + 1 ))
      post "$entry" "$work/delta-$i.json" "$work/chaos-delta"
      cmp -s "$work/chaos-delta" "$work/golden-delta-$i" || wrong=$(( wrong + 1 ))
    done
  done
done
resolves=$(( $(metric "$n2" solver_runs_total) - runs2 + $(metric "$n3" solver_runs_total) - runs3 ))
colds=$(( $(metric "$n2" incr_cold_solves_total) - cold2 + $(metric "$n3" incr_cold_solves_total) - cold3 ))
failovers2=$(metric "$n2" cluster_failovers_total); failovers3=$(metric "$n3" cluster_failovers_total)
failovers=$(( failovers2 + failovers3 ))
restored=$(( $(metric "$n2" store_sessions_restored_total) + $(metric "$n3" store_sessions_restored_total) ))
# Report the numbers before gating on them, so a failed run says which.
echo "chaos: wrong=$wrong resolves=$resolves colds=$colds failovers=$failovers" \
  "(n2 $failovers2, n3 $failovers3) restored=$restored" >&2
test "$wrong" -eq 0
test "$resolves" -eq 0   # replicated fingerprints never re-solve
test "$colds" -eq 0
test "$failovers" -ge 1
test "$restored" -ge 1
# The failover left its trail in a survivor's flight recorder.
curl -fsS "$n2/debug/flight" > "$work/flight"
curl -fsS "$n3/debug/flight" >> "$work/flight"
grep -q 'failover: owner' "$work/flight"

# ------------------------------------------------------- the replacement
# A fresh node joins via a survivor — no restarts, no -peers edits — and
# begins serving: old keys byte-identically (routed to the warm
# survivors), and a brand-new fingerprint end to end.
"$BIN" -addr "127.0.0.1:${p4}" -advertise "$n4" -join "$n2" \
  -replicas 2 -probe-interval 250ms -data-dir "$work/node4" &
pids+=("$!")
wait_healthy "$n4"
# The joiner adopted the full member view (3 seeds + itself; the dead node
# is still a member, just down) and sees exactly the two live peers up.
for _ in $(seq 1 50); do
  if [ "$(metric "$n4" cluster_members)" -eq 4 ] && [ "$(metric "$n4" cluster_peers_up)" -eq 2 ]; then break; fi
  sleep 0.2
done
test "$(metric "$n4" cluster_members)" -eq 4
test "$(metric "$n4" cluster_peers_up)" -eq 2
# Gossip carried the join to the second survivor without it being told.
wait_metric_at_least "$n3" cluster_members 4

for i in $(seq 1 "$N"); do
  post "$n4" "$work/inst-$i.json" "$work/join-base"
  cmp "$work/join-base" "$work/golden-base-$i"
done
mk_inst $(( N + 1 )) > "$work/inst-new.json"
post "$n4" "$work/inst-new.json" "$work/new-resp"
grep -q '"key"' "$work/new-resp"

# Every live node still serves valid, deterministically ordered exposition
# carrying the elasticity families.
for url in "$n2" "$n3" "$n4"; do
  curl -fsS -o "$work/scrape" "$url/metrics"
  ./.github/check_metrics.sh < "$work/scrape"
  for fam in cluster_members cluster_membership_epoch cluster_replica_pushed_total \
    cluster_replica_ingested_total cluster_replica_served_total \
    cluster_replica_failed_total cluster_failovers_total \
    cluster_forward_exhausted_total cluster_sessions_migrated_total \
    cluster_probes_stale_total; do
    grep -q "^linksynthd_${fam} " "$work/scrape" \
      || { echo "chaos: $url missing metric $fam" >&2; exit 1; }
  done
done

# ------------------------------------------------------------- the gate
requests=$(wc -l < "$work/latencies")
p99=$(sort -n "$work/latencies" | awk -v n="$requests" 'NR == int(n * 0.99) + ((n * 0.99 == int(n * 0.99)) ? 0 : 1) {print; exit}')
maxms=$(sort -n "$work/latencies" | tail -1)
echo "chaos: p99=${p99}ms max=${maxms}ms budget=${P99_BUDGET_MS}ms over $requests requests" >&2
test "$p99" -le "$P99_BUDGET_MS"

printf '{"nodes":3,"replicas":2,"fingerprints":%d,"rounds":%d,"requests":%d,"wrong_bytes":%d,"survivor_resolves":%d,"survivor_cold_solves":%d,"failovers":%d,"sessions_restored":%d,"p99_ms":%d,"max_ms":%d,"p99_budget_ms":%d}\n' \
  "$N" "$ROUNDS" "$requests" "$wrong" "$resolves" "$colds" "$failovers" "$restored" "$p99" "$maxms" "$P99_BUDGET_MS" > CHAOS.json
cat CHAOS.json
echo "chaos smoke: PASS"

#!/usr/bin/env bash
# Smoke test for the bdcoord shard coordinator, run by CI and usable
# locally: boot two characterize-only bdservd workers and one bdcoord,
# submit the CI-scale job to the coordinator, and verify the merged
# result hash (and bytes) are identical to a direct single-daemon run of
# the same spec. Then restart the coordinator and verify its job records
# are read back: the finished job's status and result are still served.
# Next, submit a job whose spec carries custom workload definitions (a
# preset family plus an inline ad-hoc definition) and assert the merged
# result is byte-identical to the single-daemon run and that
# resubmission is a cache hit with an unchanged job ID.
# Then resubmit the first suite with one workload changed: the
# coordinator's shared cell cache must serve the unchanged workloads'
# columns (bd_cellcache_hits_total rises) while the merged bytes stay
# identical to a cell-cache-disabled coordinator run.
# Finally, run the heterogeneous-speed scenario: one worker throttled
# with -throttle-cell, asserting the work-stealing dispatcher (a) still
# produces the identical hash, (b) beats the static-planner worst case
# wall-clock, and (c) reports both workers healthy on /v1/workers with
# the fast worker having executed more units.
set -euo pipefail

W1_ADDR="127.0.0.1:8361"
W2_ADDR="127.0.0.1:8362"
CO_ADDR="127.0.0.1:8360"
SD_ADDR="127.0.0.1:8363"
W3_ADDR="127.0.0.1:8364"
W4_ADDR="127.0.0.1:8365"
C2_ADDR="127.0.0.1:8366"
C3_ADDR="127.0.0.1:8367"
C2="http://$C2_ADDR"
C3="http://$C3_ADDR"
CO="http://$CO_ADDR"
SD="http://$SD_ADDR"
WORKDIR="$(mktemp -d)"
PIDS=()
# Kill and reap every daemon started here (restarted coordinators
# included) before removing their data dirs, so none outlives the script.
# ${PIDS[@]:-} keeps the trap working on an empty array under set -u
# (bash<4.4).
cleanup() {
  kill -9 "${PIDS[@]:-}" 2>/dev/null || true
  wait "${PIDS[@]:-}" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "==> building bdservd + bdcoord + bdtop"
go build -o "$WORKDIR/bdservd" ./cmd/bdservd
go build -o "$WORKDIR/bdcoord" ./cmd/bdcoord
go build -o "$WORKDIR/bdtop" ./cmd/bdtop

wait_healthy() { # wait_healthy <base-url> <pid>
  for i in $(seq 1 50); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then echo "daemon at $1 died" >&2; return 1; fi
    sleep 0.2
  done
  echo "daemon at $1 never became healthy" >&2
  return 1
}

json_field() { # json_field <file> <field> — bools print as True/False
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1])).get(sys.argv[2], ""))' "$1" "$2"
}

poll_done() { # poll_done <base-url> <job-id> <status-file>
  local state=""
  for i in $(seq 1 300); do
    curl -fsS "$1/v1/jobs/$2" -o "$3"
    state=$(json_field "$3" state)
    case "$state" in
      done) return 0 ;;
      failed|canceled) echo "job ended $state:" >&2; cat "$3" >&2; return 1 ;;
    esac
    sleep 1
  done
  echo "job stuck in state '$state'" >&2
  return 1
}

echo "==> starting two characterize-only workers"
"$WORKDIR/bdservd" -addr "$W1_ADDR" -data-dir "$WORKDIR/w1" -characterize-only &
PIDS+=($!); W1_PID=$!
"$WORKDIR/bdservd" -addr "$W2_ADDR" -data-dir "$WORKDIR/w2" -characterize-only &
PIDS+=($!); W2_PID=$!
wait_healthy "http://$W1_ADDR" "$W1_PID"
wait_healthy "http://$W2_ADDR" "$W2_PID"

echo "==> starting coordinator + single-daemon reference"
"$WORKDIR/bdcoord" -addr "$CO_ADDR" -data-dir "$WORKDIR/coord" \
  -workers "http://$W1_ADDR,http://$W2_ADDR" &
PIDS+=($!); CO_PID=$!
"$WORKDIR/bdservd" -addr "$SD_ADDR" -data-dir "$WORKDIR/single" &
PIDS+=($!); SD_PID=$!
wait_healthy "$CO" "$CO_PID"
wait_healthy "$SD" "$SD_PID"

JOB='{"workloads":["H-Sort","S-Sort","H-Grep","S-Grep"],"nodes":2,"instructions":6000,"kmax":3}'

echo "==> submitting job to the coordinator"
curl -fsS -X POST -d "$JOB" "$CO/v1/jobs" -o "$WORKDIR/co_submit.json"
CO_ID=$(json_field "$WORKDIR/co_submit.json" id)
[ -n "$CO_ID" ] || { echo "no job id from coordinator" >&2; cat "$WORKDIR/co_submit.json" >&2; exit 1; }
echo "    job $CO_ID"
poll_done "$CO" "$CO_ID" "$WORKDIR/co_status.json"
CO_HASH=$(json_field "$WORKDIR/co_status.json" result_hash)
[ -n "$CO_HASH" ] || { echo "coordinator job has no result_hash" >&2; exit 1; }
echo "    merged hash $CO_HASH"

echo "==> verifying both workers actually executed shards"
W1_STORES=$(curl -fsS "http://$W1_ADDR/v1/cache/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["stores"])')
W2_STORES=$(curl -fsS "http://$W2_ADDR/v1/cache/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["stores"])')
[ "$W1_STORES" -ge 1 ] || { echo "worker 1 executed no shard" >&2; exit 1; }
[ "$W2_STORES" -ge 1 ] || { echo "worker 2 executed no shard" >&2; exit 1; }

echo "==> running the same spec on a single daemon"
curl -fsS -X POST -d "$JOB" "$SD/v1/jobs" -o "$WORKDIR/sd_submit.json"
SD_ID=$(json_field "$WORKDIR/sd_submit.json" id)
poll_done "$SD" "$SD_ID" "$WORKDIR/sd_status.json"
SD_HASH=$(json_field "$WORKDIR/sd_status.json" result_hash)

echo "==> comparing results"
[ "$CO_ID" = "$SD_ID" ] || { echo "job IDs differ: $CO_ID vs $SD_ID" >&2; exit 1; }
[ "$CO_HASH" = "$SD_HASH" ] || { echo "MERGE NOT DETERMINISTIC: coordinator $CO_HASH vs single-daemon $SD_HASH" >&2; exit 1; }
curl -fsS "$CO/v1/jobs/$CO_ID/result" -o "$WORKDIR/co_result.json"
curl -fsS "$SD/v1/jobs/$SD_ID/result" -o "$WORKDIR/sd_result.json"
cmp "$WORKDIR/co_result.json" "$WORKDIR/sd_result.json"
echo "    byte-identical at 2 workers vs 1 daemon"

echo "==> fetching the distributed trace"
# The flight recorder saw the whole job: assert the canonical export has
# at least one unit span attributed to each worker, monotone span
# timestamps, and worker-side stage spans nested (via exec) under the
# coordinator's unit spans. The Chrome trace_event rendering is saved
# next to the repo's other CI artifacts for chrome://tracing inspection.
curl -fsS "$CO/v1/jobs/$CO_ID/trace" -o "$WORKDIR/co_trace.json"
curl -fsS "$CO/v1/jobs/$CO_ID/trace?format=chrome" -o smoke_bdcoord_trace.json
python3 - "$WORKDIR/co_trace.json" "http://$W1_ADDR" "http://$W2_ADDR" <<'PY'
import datetime, json, re, sys

def ts(s):  # RFC3339Nano → datetime (trim to µs for fromisoformat)
    s = s.replace('Z', '+00:00')
    m = re.match(r'(.*\.)(\d+)([+-].*)', s)
    if m:
        s = m.group(1) + m.group(2)[:6].ljust(6, '0') + m.group(3)
    return datetime.datetime.fromisoformat(s)

t = json.load(open(sys.argv[1]))
spans = t['spans']
assert spans, 'trace export has no spans'
by_id = {sp['span_id']: sp for sp in spans}
for sp in spans:
    assert ts(sp['start']) <= ts(sp['end']), f'span {sp["name"]} ends before it starts: {sp}'
for worker in sys.argv[2:4]:
    units = [sp for sp in spans
             if sp['name'] == 'unit' and sp.get('attrs', {}).get('worker') == worker]
    assert units, f'no unit span attributed to {worker}'
nested = 0
for sp in spans:
    if sp.get('worker') and sp.get('attrs', {}).get('kind') == 'stage':
        chain, cur = set(), sp
        while cur.get('parent_id') in by_id and cur['parent_id'] not in chain:
            chain.add(cur['parent_id'])
            cur = by_id[cur['parent_id']]
            if cur['name'] == 'unit':
                nested += 1
                break
assert nested > 0, 'no worker stage span nests under a coordinator unit span'
print(f"    trace: {len(spans)} spans, {nested} worker stage spans nested under unit spans")
PY
python3 -c 'import json,sys; ev=json.load(open("smoke_bdcoord_trace.json"))["traceEvents"]; assert ev, "empty chrome trace"; print(f"    chrome trace: {len(ev)} events -> smoke_bdcoord_trace.json")'

echo "==> restarting the coordinator (job records read back)"
kill "$CO_PID"
wait "$CO_PID" 2>/dev/null || true
"$WORKDIR/bdcoord" -addr "$CO_ADDR" -data-dir "$WORKDIR/coord" \
  -workers "http://$W1_ADDR,http://$W2_ADDR" &
PIDS+=($!); CO_PID=$!
wait_healthy "$CO" "$CO_PID"
curl -fsS "$CO/v1/jobs/$CO_ID" -o "$WORKDIR/co_status2.json"
STATE2=$(json_field "$WORKDIR/co_status2.json" state)
HASH2=$(json_field "$WORKDIR/co_status2.json" result_hash)
[ "$STATE2" = "done" ] || { echo "replayed job state=$STATE2" >&2; exit 1; }
[ "$HASH2" = "$CO_HASH" ] || { echo "replayed hash $HASH2 != $CO_HASH" >&2; exit 1; }
curl -fsS "$CO/v1/jobs/$CO_ID/result" -o "$WORKDIR/co_result2.json"
cmp "$WORKDIR/co_result.json" "$WORKDIR/co_result2.json"
echo "    job record read back: job still done with identical result"

echo "==> custom-workload job: preset + inline definition through the coordinator"
# The spec carries the MemThrash preset (materialized into the spec by
# the daemon) plus an inline ad-hoc definition, selecting a mix of
# built-in, preset and custom workloads. The merged result at 2 workers
# must be byte-identical to the single-daemon run, and resubmission must
# be a cache hit with the unchanged job ID.
CJOB='{"workloads":["H-Sort","H-MemThrash","S-MemThrash","H-Probe","S-Probe"],"nodes":2,"instructions":6000,"kmax":3,"presets":["MemThrash"],"custom_workloads":[{"name":"Probe","data":{"paper_bytes":1073741824,"skew":0.3},"mix":{"LoadFrac":0.3,"StoreFrac":0.1,"BranchFrac":0.18,"SeqFrac":0.6},"shuffle_frac":0.1}]}'

curl -fsS -X POST -d "$CJOB" "$CO/v1/jobs" -o "$WORKDIR/cu_submit.json"
CU_ID=$(json_field "$WORKDIR/cu_submit.json" id)
[ -n "$CU_ID" ] || { echo "no job id for custom job" >&2; cat "$WORKDIR/cu_submit.json" >&2; exit 1; }
echo "    custom job $CU_ID"
poll_done "$CO" "$CU_ID" "$WORKDIR/cu_status.json"
CU_HASH=$(json_field "$WORKDIR/cu_status.json" result_hash)
[ -n "$CU_HASH" ] || { echo "custom job has no result_hash" >&2; exit 1; }

curl -fsS -X POST -d "$CJOB" "$SD/v1/jobs" -o "$WORKDIR/cu_sd_submit.json"
CU_SD_ID=$(json_field "$WORKDIR/cu_sd_submit.json" id)
[ "$CU_SD_ID" = "$CU_ID" ] || { echo "custom job IDs differ: $CU_ID vs $CU_SD_ID" >&2; exit 1; }
poll_done "$SD" "$CU_SD_ID" "$WORKDIR/cu_sd_status.json"
CU_SD_HASH=$(json_field "$WORKDIR/cu_sd_status.json" result_hash)
[ "$CU_HASH" = "$CU_SD_HASH" ] || { echo "CUSTOM MERGE NOT DETERMINISTIC: coordinator $CU_HASH vs single-daemon $CU_SD_HASH" >&2; exit 1; }
curl -fsS "$CO/v1/jobs/$CU_ID/result" -o "$WORKDIR/cu_result.json"
curl -fsS "$SD/v1/jobs/$CU_SD_ID/result" -o "$WORKDIR/cu_sd_result.json"
cmp "$WORKDIR/cu_result.json" "$WORKDIR/cu_sd_result.json"
echo "    custom-workload result byte-identical at 2 workers vs 1 daemon ($CU_HASH)"

curl -fsS -X POST -d "$CJOB" "$CO/v1/jobs" -o "$WORKDIR/cu_again.json"
CU_AGAIN_ID=$(json_field "$WORKDIR/cu_again.json" id)
CU_AGAIN_HIT=$(json_field "$WORKDIR/cu_again.json" cache_hit)
[ "$CU_AGAIN_ID" = "$CU_ID" ] || { echo "resubmitted custom job ID drifted: $CU_AGAIN_ID" >&2; exit 1; }
[ "$CU_AGAIN_HIT" = "True" ] || { echo "custom resubmission was not a cache hit" >&2; cat "$WORKDIR/cu_again.json" >&2; exit 1; }
echo "    resubmission: cache hit, unchanged job ID"

echo "==> scraping coordinator /metrics"
# By now the coordinator has dispatched units to both workers and served
# a cache-hit resubmission, so the Prometheus exposition must show both.
curl -fsS "$CO/metrics" -o "$WORKDIR/co_metrics.txt"
python3 - "$WORKDIR/co_metrics.txt" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
def total(name):
    return sum(float(m.group(1)) for m in
               re.finditer(r'^%s(?:\{[^}]*\})? ([0-9.eE+-]+)$' % name, text, re.M))
units = total('bd_worker_units_done_total')
hits = total('bd_cache_hits_total')
assert units > 0, "no bd_worker_units_done_total on /metrics"
assert hits > 0, "no bd_cache_hits_total on /metrics"
for fam in ('bd_http_requests_total', 'bd_stage_duration_seconds',
            'bd_queue_depth', 'bd_fleet_workers'):
    assert fam in text, f"family {fam} missing from /metrics"
print(f"    /metrics: {units:.0f} units done, {hits:.0f} cache hits")
PY
# The workers expose the same endpoint: each executed shard jobs.
curl -fsS "http://$W1_ADDR/metrics" | grep -q '^bd_jobs_completed_total{state="done"} [1-9]' \
  || { echo "worker 1 /metrics shows no completed jobs" >&2; exit 1; }
echo "    worker /metrics shows completed shard jobs"

echo "==> overlapping-suite resubmission: one workload changed (cell cache)"
# The first job populated the coordinator's shared cell cache (under
# -data-dir/cells). A job sharing 3 of its 4 workloads must serve the
# shared workload×node columns from that cache — only the new
# workload's cells are recomputed — visible as a bd_cellcache_hits_total
# increase, and its merged bytes must be identical to a coordinator run
# with the cell cache disabled.
cell_hits() {
  curl -fsS "$1/metrics" | python3 -c 'import sys,re
t = sys.stdin.read()
m = re.search(r"^bd_cellcache_hits_total ([0-9.eE+-]+)$", t, re.M)
print(m.group(1) if m else 0)'
}
PRE_CELL_HITS=$(cell_hits "$CO")
JOB2='{"workloads":["H-Sort","S-Sort","H-Grep","H-WordCount"],"nodes":2,"instructions":6000,"kmax":3}'
curl -fsS -X POST -d "$JOB2" "$CO/v1/jobs" -o "$WORKDIR/j2_submit.json"
J2_ID=$(json_field "$WORKDIR/j2_submit.json" id)
[ -n "$J2_ID" ] || { echo "no job id for changed-workload job" >&2; exit 1; }
poll_done "$CO" "$J2_ID" "$WORKDIR/j2_status.json"
J2_HASH=$(json_field "$WORKDIR/j2_status.json" result_hash)
POST_CELL_HITS=$(cell_hits "$CO")
python3 -c "
pre, post = float('$PRE_CELL_HITS'), float('$POST_CELL_HITS')
assert post > pre, f'no cell-cache hits on overlapping resubmission ({pre} -> {post})'
print(f'    bd_cellcache_hits_total {pre:.0f} -> {post:.0f}')
"

"$WORKDIR/bdcoord" -addr "$C3_ADDR" -data-dir "$WORKDIR/coord3" -cell-cache "" \
  -workers "http://$W1_ADDR,http://$W2_ADDR" &
PIDS+=($!); C3_PID=$!
wait_healthy "$C3" "$C3_PID"
curl -fsS -X POST -d "$JOB2" "$C3/v1/jobs" -o "$WORKDIR/j2_nc_submit.json"
J2_NC_ID=$(json_field "$WORKDIR/j2_nc_submit.json" id)
[ "$J2_NC_ID" = "$J2_ID" ] || { echo "cache-disabled job id $J2_NC_ID != $J2_ID" >&2; exit 1; }
poll_done "$C3" "$J2_NC_ID" "$WORKDIR/j2_nc_status.json"
J2_NC_HASH=$(json_field "$WORKDIR/j2_nc_status.json" result_hash)
[ "$J2_HASH" = "$J2_NC_HASH" ] || { echo "CELL CACHE CHANGED RESULT: cached $J2_HASH vs disabled $J2_NC_HASH" >&2; exit 1; }
curl -fsS "$CO/v1/jobs/$J2_ID/result" -o "$WORKDIR/j2_result.json"
curl -fsS "$C3/v1/jobs/$J2_NC_ID/result" -o "$WORKDIR/j2_nc_result.json"
cmp "$WORKDIR/j2_result.json" "$WORKDIR/j2_nc_result.json"
echo "    cell-cached result byte-identical to cache-disabled run ($J2_HASH)"

echo "==> fleet console: /v1/status + bdtop -once"
# The coordinator has a live 2-worker fleet, finished jobs and a warm
# cell cache, so one /v1/status snapshot must carry all of it: the
# merged fleet view with both workers reachable, non-zero fleet units,
# and per-workload cell-cache hit ratios with at least one warm row.
# The snapshot is kept as a CI artifact next to the chrome trace.
curl -fsS "$CO/v1/status" -o smoke_bdcoord_status.json
python3 - smoke_bdcoord_status.json "http://$W1_ADDR" "http://$W2_ADDR" <<'PY'
import json, sys
st = json.load(open(sys.argv[1]))
assert st['service'] == 'bdcoord', st.get('service')
assert st['jobs']['done'] >= 2, st['jobs']
fleet = st.get('fleet') or []
assert len(fleet) == 2, f'fleet has {len(fleet)} workers'
by_url = {w['url']: w for w in fleet}
units = 0
for url in sys.argv[2:4]:
    w = by_url[url]
    assert not w.get('status_error'), f'{url} unreachable: {w["status_error"]}'
    assert w['status']['service'] == 'bdservd', w['status'].get('service')
    units += w['units_done']
assert units > 0, 'fleet reports zero units done'
cc = st.get('cell_cache') or {}
rows = cc.get('by_workload') or []
assert rows, 'no per-workload cell-cache attribution'
warm = [r for r in rows if r['hit_ratio'] > 0]
assert warm, f'no workload with a non-zero hit ratio: {rows}'
assert st.get('window', {}).get('series'), 'no time-series window in the snapshot'
print(f"    /v1/status: 2 workers reachable, {units} units, "
      f"{len(warm)}/{len(rows)} workloads warm -> smoke_bdcoord_status.json")
PY

"$WORKDIR/bdtop" -once -addr "$CO" > "$WORKDIR/bdtop_frame.txt"
grep -q 'FLEET  2 workers' "$WORKDIR/bdtop_frame.txt" \
  || { echo "bdtop frame missing fleet view" >&2; cat "$WORKDIR/bdtop_frame.txt" >&2; exit 1; }
grep -Eq 'units done [1-9]' "$WORKDIR/bdtop_frame.txt" \
  || { echo "bdtop frame shows no fleet units" >&2; cat "$WORKDIR/bdtop_frame.txt" >&2; exit 1; }
grep -Eq 'cell cache .* ratio 0\.[0-9]*[1-9]|cell cache .* ratio 1\.00' "$WORKDIR/bdtop_frame.txt" \
  || { echo "bdtop frame shows zero cell-cache hit ratio" >&2; cat "$WORKDIR/bdtop_frame.txt" >&2; exit 1; }
sed 's/^/    | /' "$WORKDIR/bdtop_frame.txt" | head -12
echo "    bdtop -once rendered the merged fleet view"

echo "==> heterogeneous-speed scenario: one worker throttled 3s/cell"
# Fresh workers and coordinator (fresh data dirs: no cache replay). The
# job grid has 8 workload×node cells; under the old *static* planner the
# throttled worker would own half of them, so any static schedule costs
# at least 4 × 3s = 12s of injected delay alone. Work stealing must let
# the fast worker drain the tail and finish well under that bound.
CELL_DELAY=3
STATIC_BOUND=12
"$WORKDIR/bdservd" -addr "$W3_ADDR" -data-dir "$WORKDIR/w3" -characterize-only &
PIDS+=($!); W3_PID=$!
"$WORKDIR/bdservd" -addr "$W4_ADDR" -data-dir "$WORKDIR/w4" -characterize-only \
  -throttle-cell "${CELL_DELAY}s" &
PIDS+=($!); W4_PID=$!
wait_healthy "http://$W3_ADDR" "$W3_PID"
wait_healthy "http://$W4_ADDR" "$W4_PID"
"$WORKDIR/bdcoord" -addr "$C2_ADDR" -data-dir "$WORKDIR/coord2" \
  -workers "http://$W3_ADDR,http://$W4_ADDR" -probe-interval 1s &
PIDS+=($!); C2_PID=$!
wait_healthy "$C2" "$C2_PID"

T0=$(python3 -c 'import time; print(time.time())')
curl -fsS -X POST -d "$JOB" "$C2/v1/jobs" -o "$WORKDIR/c2_submit.json"
C2_ID=$(json_field "$WORKDIR/c2_submit.json" id)
[ "$C2_ID" = "$CO_ID" ] || { echo "heterogeneous job id $C2_ID != $CO_ID" >&2; exit 1; }
poll_done "$C2" "$C2_ID" "$WORKDIR/c2_status.json"
T1=$(python3 -c 'import time; print(time.time())')
ELAPSED=$(python3 -c "print($T1 - $T0)")

C2_HASH=$(json_field "$WORKDIR/c2_status.json" result_hash)
[ "$C2_HASH" = "$CO_HASH" ] || { echo "heterogeneous-fleet hash $C2_HASH != $CO_HASH" >&2; exit 1; }
echo "    hash identical under a throttled worker ($C2_HASH)"
python3 -c "
import sys
elapsed = $ELAPSED
bound = $STATIC_BOUND
print(f'    wall-clock {elapsed:.1f}s vs static-planner worst case >= {bound}s')
sys.exit(0 if elapsed < bound else 1)
" || { echo "work stealing did not beat the static-planner worst case" >&2; exit 1; }

echo "==> checking /v1/workers health + unit distribution"
curl -fsS "$C2/v1/workers" -o "$WORKDIR/c2_workers.json"
python3 - "$WORKDIR/c2_workers.json" "http://$W3_ADDR" "http://$W4_ADDR" <<'PY'
import json, sys
ws = {w["url"]: w for w in json.load(open(sys.argv[1]))}
fast, slow = ws[sys.argv[2]], ws[sys.argv[3]]
assert fast["breaker"] == "closed" and slow["breaker"] == "closed", ws
assert fast["units_done"] > slow["units_done"] > 0 or slow["units_done"] == 0, ws
assert fast["units_done"] + slow["units_done"] >= 8, ws
assert fast["probes"] > 0, ws
print(f"    fast worker ran {fast['units_done']} units, throttled worker {slow['units_done']}; breakers closed")
PY

echo "==> bdcoord smoke OK (job $CO_ID, merged hash $CO_HASH)"

#!/usr/bin/env bash
# Smoke test for elastic fleet membership + coordinator crash recovery,
# run by CI and usable locally:
#
#  1. Boot a coordinator with NO -workers seed and one throttled
#     characterize-only worker that self-registers (-register) under a
#     5s heartbeat lease; assert the lease (source, ttl, remaining)
#     shows on GET /v1/workers.
#  2. Submit a job, wait until the coordinator's /metrics shows its first
#     cell-cache store (bd_cellcache_stores_total >= 1) while the job is
#     still running, then SIGKILL the coordinator mid-job — the crash
#     model, no drain, no terminal record.
#  3. Register a second worker (fleet churn during recovery) and restart
#     the coordinator over the same data dir: it must re-adopt the job
#     from its record, read every column stored before the kill back
#     from its cell cache (bd_cellcache_hits_total >= the pre-kill store
#     count), and finish the job.
#  4. Assert the recovered merged result is byte-identical to a
#     single-daemon run of the same spec.
#  5. SIGTERM the second worker and assert its graceful shutdown
#     releases the lease (it disappears from /v1/workers immediately,
#     not by TTL expiry).
set -euo pipefail

CO_ADDR="127.0.0.1:8370"
W1_ADDR="127.0.0.1:8371"
W2_ADDR="127.0.0.1:8372"
SD_ADDR="127.0.0.1:8373"
CO="http://$CO_ADDR"
W1="http://$W1_ADDR"
W2="http://$W2_ADDR"
SD="http://$SD_ADDR"
WORKDIR="$(mktemp -d)"
PIDS=()
# Kill and reap every daemon started here (the restarted coordinator and
# both workers included), so none outlives the script. ${PIDS[@]:-} keeps
# the trap working on an empty array under set -u (bash<4.4).
cleanup() {
  kill -9 "${PIDS[@]:-}" 2>/dev/null || true
  wait "${PIDS[@]:-}" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "==> building bdservd + bdcoord"
go build -o "$WORKDIR/bdservd" ./cmd/bdservd
go build -o "$WORKDIR/bdcoord" ./cmd/bdcoord

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

metric_total() { # metric_total <base-url> <name> — sum over all label sets
  curl -fsS "$1/metrics" | python3 -c '
import re, sys
text = sys.stdin.read()
print(int(sum(float(m.group(1)) for m in
    re.finditer(r"^%s(?:\{[^}]*\})? ([0-9.eE+-]+)$" % sys.argv[1], text, re.M))))' "$2"
}

registered_count() { # registered workers currently on the fleet
  curl -fsS "$CO/v1/workers" | python3 -c \
    'import json,sys; print(sum(1 for w in json.load(sys.stdin) if w.get("source")=="registered"))'
}

echo "==> starting a seedless coordinator and a self-registering throttled worker"
"$WORKDIR/bdcoord" -addr "$CO_ADDR" -data-dir "$WORKDIR/coord" &
PIDS+=($!); CO_PID=$!
"$WORKDIR/bdservd" -addr "$W1_ADDR" -data-dir "$WORKDIR/w1" -characterize-only \
  -throttle-cell 1s -register "$CO" -advertise "$W1" -lease-ttl 5s &
PIDS+=($!); W1_PID=$!
wait_healthy "$CO" "$CO_PID"
wait_healthy "$W1" "$W1_PID"

echo "==> waiting for the worker's lease on GET /v1/workers"
COUNT=0
for i in $(seq 1 50); do
  COUNT=$(registered_count)
  [ "$COUNT" -ge 1 ] && break
  sleep 0.2
done
[ "$COUNT" -ge 1 ] || { echo "worker never registered with the coordinator" >&2; exit 1; }
curl -fsS "$CO/v1/workers" -o "$WORKDIR/workers.json"
python3 - "$WORKDIR/workers.json" "$W1" <<'PY'
import json, sys
ws = {w["url"]: w for w in json.load(open(sys.argv[1]))}
w = ws[sys.argv[2]]
assert w["source"] == "registered", w
assert w["ttl_seconds"] == 5, w
assert w.get("last_heartbeat"), w
assert 0 < w["ttl_remaining_seconds"] <= 5, w
print(f"    lease visible: ttl {w['ttl_seconds']}s, remaining {w['ttl_remaining_seconds']:.1f}s")
PY

JOB='{"workloads":["H-Sort","S-Sort","H-Grep","S-Grep"],"nodes":2,"instructions":6000,"kmax":3}'
RECORDS="$WORKDIR/coord/jobs"

echo "==> submitting the job, then SIGKILL-ing the coordinator after its first cell-cache store"
curl -fsS -X POST -d "$JOB" "$CO/v1/jobs" -o "$WORKDIR/submit.json"
CO_ID=$(json_field "$WORKDIR/submit.json" id)
[ -n "$CO_ID" ] || { echo "no job id from coordinator" >&2; cat "$WORKDIR/submit.json" >&2; exit 1; }
echo "    job $CO_ID"
STORES=0
for i in $(seq 1 300); do
  STORES=$(metric_total "$CO" bd_cellcache_stores_total)
  [ "$STORES" -ge 1 ] && break
  sleep 0.2
done
[ "$STORES" -ge 1 ] || { echo "no cell-cache store within 60s" >&2; exit 1; }
curl -fsS "$CO/v1/jobs/$CO_ID" -o "$WORKDIR/prekill.json"
PREKILL_STATE=$(json_field "$WORKDIR/prekill.json" state)
case "$PREKILL_STATE" in
  queued|running) ;;
  *) echo "job already '$PREKILL_STATE' before the kill — crash landed too late" >&2; exit 1 ;;
esac
kill -9 "$CO_PID"
wait "$CO_PID" 2>/dev/null || true
RECORD_STATE=$(json_field "$RECORDS/$CO_ID.json" state)
case "$RECORD_STATE" in
  queued|running) ;;
  *) echo "job record '$RECORD_STATE' before the kill — crash landed too late" >&2; exit 1 ;;
esac
echo "    coordinator killed after >= $STORES cell-cache store(s) with the job non-terminal"

echo "==> second worker joins; coordinator restarts over the same job records + cell cache"
"$WORKDIR/bdservd" -addr "$W2_ADDR" -data-dir "$WORKDIR/w2" -characterize-only \
  -register "$CO" -advertise "$W2" -lease-ttl 5s &
PIDS+=($!); W2_PID=$!
wait_healthy "$W2" "$W2_PID"
"$WORKDIR/bdcoord" -addr "$CO_ADDR" -data-dir "$WORKDIR/coord" &
PIDS+=($!); CO_PID=$!
wait_healthy "$CO" "$CO_PID"

curl -fsS "$CO/v1/jobs/$CO_ID" -o "$WORKDIR/readopt.json" \
  || { echo "re-adopted job missing after restart" >&2; exit 1; }
READOPT_STATE=$(json_field "$WORKDIR/readopt.json" state)
echo "    job re-adopted in state '$READOPT_STATE'"
poll_done "$CO" "$CO_ID" "$WORKDIR/recovered.json"
RC_HASH=$(json_field "$WORKDIR/recovered.json" result_hash)
[ -n "$RC_HASH" ] || { echo "recovered job has no result_hash" >&2; exit 1; }
echo "    recovered merged hash $RC_HASH"
HITS=$(metric_total "$CO" bd_cellcache_hits_total)
[ "$HITS" -ge "$STORES" ] || { echo "restarted coordinator hit $HITS cached columns, want >= $STORES stored before the kill" >&2; exit 1; }
echo "    restarted coordinator read $HITS column(s) from its cell cache (>= $STORES stored before the kill)"

echo "==> single-daemon golden comparison"
"$WORKDIR/bdservd" -addr "$SD_ADDR" -data-dir "$WORKDIR/single" &
PIDS+=($!); SD_PID=$!
wait_healthy "$SD" "$SD_PID"
curl -fsS -X POST -d "$JOB" "$SD/v1/jobs" -o "$WORKDIR/sd_submit.json"
SD_ID=$(json_field "$WORKDIR/sd_submit.json" id)
[ "$SD_ID" = "$CO_ID" ] || { echo "job IDs differ: $CO_ID vs $SD_ID" >&2; exit 1; }
poll_done "$SD" "$SD_ID" "$WORKDIR/sd_status.json"
SD_HASH=$(json_field "$WORKDIR/sd_status.json" result_hash)
[ "$RC_HASH" = "$SD_HASH" ] || { echo "RECOVERY NOT DETERMINISTIC: recovered $RC_HASH vs single-daemon $SD_HASH" >&2; exit 1; }
curl -fsS "$CO/v1/jobs/$CO_ID/result" -o "$WORKDIR/rc_result.json"
curl -fsS "$SD/v1/jobs/$SD_ID/result" -o "$WORKDIR/sd_result.json"
cmp "$WORKDIR/rc_result.json" "$WORKDIR/sd_result.json"
echo "    recovered result byte-identical to the single-daemon run"

echo "==> scraping /metrics on the recovered coordinator"
# The restart re-dispatched the job's remaining units, and a resubmission
# of the finished spec counts as a cache hit — both must show on the
# Prometheus exposition.
curl -fsS -X POST -d "$JOB" "$CO/v1/jobs" >/dev/null
curl -fsS "$CO/metrics" -o "$WORKDIR/co_metrics.txt"
python3 - "$WORKDIR/co_metrics.txt" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
def total(name):
    return sum(float(m.group(1)) for m in
               re.finditer(r'^%s(?:\{[^}]*\})? ([0-9.eE+-]+)$' % name, text, re.M))
units = total('bd_worker_units_done_total')
hits = total('bd_cache_hits_total')
assert units > 0, "no bd_worker_units_done_total on recovered /metrics"
assert hits > 0, "no bd_cache_hits_total on recovered /metrics"
assert total('bd_lease_events_total') > 0, "no lease events on /metrics"
print(f"    /metrics: {units:.0f} units done after recovery, {hits:.0f} cache hits")
PY

echo "==> graceful worker shutdown releases its lease immediately"
BEFORE=$(registered_count)
kill -TERM "$W2_PID"
wait "$W2_PID" 2>/dev/null || true
AFTER=$(registered_count)
[ "$AFTER" -lt "$BEFORE" ] || { echo "lease not released on SIGTERM ($BEFORE -> $AFTER registered)" >&2; exit 1; }
curl -fsS "$CO/v1/workers" -o "$WORKDIR/workers_after.json"
python3 - "$WORKDIR/workers_after.json" "$W2" <<'PY'
import json, sys
ws = [w["url"] for w in json.load(open(sys.argv[1]))]
assert sys.argv[2] not in ws, ws
print("    lease released: worker gone from /v1/workers without waiting for TTL")
PY

echo "==> recovery smoke OK (job $CO_ID, recovered hash $RC_HASH)"

#!/usr/bin/env bash
# Smoke test for the bdservd characterization service, run by CI and
# usable locally: start the daemon, submit a tiny 2-workload job, poll it
# to completion, then verify that resubmitting the identical job is an
# immediate cache hit with the identical result hash and byte-identical
# result body. Finally run the same request through report, once locally
# and once against the daemon, and require byte-identical metric CSVs.
set -euo pipefail

ADDR="127.0.0.1:8356"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SERVD_PID=""
# Kill and reap the daemon before removing its data dir, so it neither
# outlives the script nor drains into a directory being deleted.
cleanup() {
  kill -9 "${SERVD_PID:-}" 2>/dev/null || true
  wait "${SERVD_PID:-}" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "==> building bdservd and report"
go build -o "$WORKDIR/bdservd" ./cmd/bdservd
go build -o "$WORKDIR/report" ./cmd/report

echo "==> starting daemon"
"$WORKDIR/bdservd" -addr "$ADDR" -data-dir "$WORKDIR/data" &
SERVD_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVD_PID" 2>/dev/null; then echo "daemon died" >&2; exit 1; fi
  sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null || { echo "daemon never became healthy" >&2; exit 1; }

JOB='{"workloads":["H-Sort","S-Sort"],"nodes":2,"instructions":6000,"kmax":3}'
echo "$JOB" > "$WORKDIR/job.json"

json_field() { # json_field <file> <field> — bools print as True/False
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1])).get(sys.argv[2], ""))' "$1" "$2"
}

echo "==> submitting job"
curl -fsS -X POST -d "$JOB" "$BASE/v1/jobs" -o "$WORKDIR/submit1.json"
ID=$(json_field "$WORKDIR/submit1.json" id)
HIT1=$(json_field "$WORKDIR/submit1.json" cache_hit)
[ -n "$ID" ] || { echo "no job id in response" >&2; cat "$WORKDIR/submit1.json" >&2; exit 1; }
[ "$HIT1" = "False" ] || { echo "first submission reported cache_hit=$HIT1" >&2; exit 1; }
echo "    job $ID"

echo "==> polling to completion"
STATE=""
for i in $(seq 1 300); do
  curl -fsS "$BASE/v1/jobs/$ID" -o "$WORKDIR/status.json"
  STATE=$(json_field "$WORKDIR/status.json" state)
  case "$STATE" in
    done) break ;;
    failed|canceled) echo "job ended $STATE:" >&2; cat "$WORKDIR/status.json" >&2; exit 1 ;;
  esac
  sleep 1
done
[ "$STATE" = "done" ] || { echo "job stuck in state '$STATE'" >&2; exit 1; }
HASH1=$(json_field "$WORKDIR/status.json" result_hash)
[ -n "$HASH1" ] || { echo "done job has no result_hash" >&2; exit 1; }
echo "    result hash $HASH1"

echo "==> checking the event stream replays to a terminal event"
curl -fsS "$BASE/v1/jobs/$ID/events" -o "$WORKDIR/events.ndjson"
grep -q '"type":"done"' "$WORKDIR/events.ndjson" || { echo "event stream lacks done event" >&2; exit 1; }

echo "==> resubmitting identical job (must be an immediate cache hit)"
START=$(date +%s)
curl -fsS -X POST -d "$JOB" "$BASE/v1/jobs" -o "$WORKDIR/submit2.json"
ELAPSED=$(( $(date +%s) - START ))
HIT2=$(json_field "$WORKDIR/submit2.json" cache_hit)
STATE2=$(json_field "$WORKDIR/submit2.json" state)
HASH2=$(json_field "$WORKDIR/submit2.json" result_hash)
[ "$HIT2" = "True" ] || { echo "second submission cache_hit=$HIT2" >&2; cat "$WORKDIR/submit2.json" >&2; exit 1; }
[ "$STATE2" = "done" ] || { echo "second submission state=$STATE2" >&2; exit 1; }
[ "$HASH2" = "$HASH1" ] || { echo "result hash changed: $HASH1 vs $HASH2" >&2; exit 1; }
[ "$ELAPSED" -le 5 ] || { echo "cached resubmission took ${ELAPSED}s" >&2; exit 1; }

echo "==> verifying byte-identical result bodies"
curl -fsS "$BASE/v1/jobs/$ID/result" -o "$WORKDIR/result1.json"
curl -fsS "$BASE/v1/jobs/$ID/result" -o "$WORKDIR/result2.json"
cmp "$WORKDIR/result1.json" "$WORKDIR/result2.json"

echo "==> cache stats"
curl -fsS "$BASE/v1/cache/stats"
HITS=$(curl -fsS "$BASE/v1/cache/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["hits"])')
[ "$HITS" -ge 1 ] || { echo "cache reports zero hits" >&2; exit 1; }

echo "==> report: the same request locally and through the daemon"
"$WORKDIR/report" -request "$WORKDIR/job.json" -only metrics > "$WORKDIR/local.csv"
"$WORKDIR/report" -request "$WORKDIR/job.json" -only metrics -server "$BASE" > "$WORKDIR/remote.csv"
[ -s "$WORKDIR/local.csv" ] || { echo "report wrote no metrics" >&2; exit 1; }
cmp "$WORKDIR/local.csv" "$WORKDIR/remote.csv"

echo "==> bdservd smoke OK (job $ID, hash $HASH1, cache hits $HITS)"

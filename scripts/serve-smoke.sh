#!/usr/bin/env bash
# Live smoke test of the demon-serve binary: start it on a temp root with the
# hardening flags, create a namespace, stream NDJSON blocks from demon-datagen
# through demon-feed (sequenced, exactly-once), re-feed the same stream to see
# duplicates acknowledged, bounce an oversized body off the 413 cap, query the
# model, SIGTERM it mid-life, and verify the restart resumes the namespace at
# the drained block with the feed still idempotent. The server logs JSON at
# debug level throughout; at the end every stderr line must parse as a record
# with ts, level and msg, and the traced ingest's request line must carry its
# trace ID. Run via `make serve-smoke` so bin/ is fresh. Needs curl and jq.
set -euo pipefail

cd "$(dirname "$0")/.."
for b in bin/demon-serve bin/demon-feed bin/demon-datagen; do
    [ -x "$b" ] || { echo "serve-smoke: $b missing (run make bin)" >&2; exit 1; }
done
BIN=bin/demon-serve

ROOT=$(mktemp -d)
LOG="$ROOT/serve.log"
PORT=$(( (RANDOM % 1000) + 18000 ))
ADDR="localhost:$PORT"
SRV_PID=

cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$ROOT"
}
trap cleanup EXIT

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "serve-smoke: server never became healthy on $ADDR" >&2
    exit 1
}

start_server() {
    "$BIN" -root "$ROOT/state" -addr "$ADDR" \
        -max-ingest-bytes $((256 * 1024)) \
        -http-read-header-timeout 5s \
        -log-format json -log-level debug 2>>"$LOG" &
    SRV_PID=$!
    wait_healthy
}

echo "serve-smoke: starting $BIN on $ADDR (root $ROOT)"
start_server

echo "serve-smoke: /versionz and /metricsz answer"
curl -fsS "http://$ADDR/versionz" | grep -q '"go"'
curl -fsS "http://$ADDR/metricsz" >/dev/null

echo "serve-smoke: /readyz reports ready"
READY=$(curl -fsS "http://$ADDR/readyz")
echo "$READY" | grep -q '"ready": *true' || { echo "serve-smoke: /readyz not ready: $READY" >&2; exit 1; }

echo "serve-smoke: creating namespace and feeding blocks through demon-feed"
curl -fsS -X POST "http://$ADDR/v1/namespaces" \
    -d '{"name":"smoke","kind":"itemset","min_support":0.05,"strategy":"ecut"}' >/dev/null
bin/demon-datagen -kind tx -format ndjson -blocks 4 -blocksize 200 -dir - 2>/dev/null \
    > "$ROOT/blocks.ndjson"
FEED=$(bin/demon-feed -url "http://$ADDR" -ns smoke < "$ROOT/blocks.ndjson" 2>/dev/null)
echo "$FEED" | grep -q '"read":4' && echo "$FEED" | grep -q '"sent":4' ||
    { echo "serve-smoke: first feed did not send all blocks: $FEED" >&2; exit 1; }
curl -fsS "http://$ADDR/v1/namespaces/smoke/itemsets?top=3" | grep -q '"support"'

echo "serve-smoke: re-feeding the same stream is acknowledged as duplicates"
REFEED=$(bin/demon-feed -url "http://$ADDR" -ns smoke -no-sync < "$ROOT/blocks.ndjson" 2>/dev/null)
echo "$REFEED" | grep -q '"duplicates":4' ||
    { echo "serve-smoke: duplicate re-send not acknowledged: $REFEED" >&2; exit 1; }
curl -fsS "http://$ADDR/v1/namespaces/smoke" | grep -q '"seq": *4'

echo "serve-smoke: an oversized ingest body is refused with 413"
CODE=$(head -c 300000 /dev/zero | tr '\0' ' ' |
    curl -s -o /dev/null -w '%{http_code}' --data-binary @- \
        "http://$ADDR/v1/namespaces/smoke/blocks")
[ "$CODE" = 413 ] || { echo "serve-smoke: oversized body got $CODE, want 413" >&2; exit 1; }
curl -fsS "http://$ADDR/metricsz" | grep -q 'serve.ingest.rejected|reason=body' ||
    { echo "serve-smoke: 413 did not bump the rejected counter" >&2; exit 1; }

echo "serve-smoke: traced curl ingest retains the trace end to end"
curl -fsS -X POST "http://$ADDR/v1/namespaces" \
    -d '{"name":"traced","kind":"itemset","min_support":0.05,"strategy":"ecut"}' >/dev/null
head -1 "$ROOT/blocks.ndjson" |
    curl -fsS -X POST -H 'X-Demon-Trace-Id: smoke-trace' --data-binary @- \
        "http://$ADDR/v1/namespaces/traced/blocks" >/dev/null
curl -fsS -X POST "http://$ADDR/v1/namespaces/traced/flush" >/dev/null
TRACE=$(curl -fsS "http://$ADDR/tracez?id=smoke-trace")
for span in serve.http.request.ns serve.queue.wait.ns miner.itemset.addblock.ns diskio.txn.commit.ns; do
    echo "$TRACE" | grep -q "\"$span\"" ||
        { echo "serve-smoke: trace is missing span $span:" >&2; echo "$TRACE" >&2; exit 1; }
done

echo "serve-smoke: /metricsz?format=prometheus parses as exposition text"
PROM=$(curl -fsS "http://$ADDR/metricsz?format=prometheus")
echo "$PROM" | grep -q '^# TYPE demon_' ||
    { echo "serve-smoke: no # TYPE demon_* families in exposition" >&2; exit 1; }
echo "$PROM" | tail -1 | grep -q '^# EOF$' ||
    { echo "serve-smoke: exposition does not end with # EOF" >&2; exit 1; }
echo "$PROM" | grep -q '_seconds_bucket{.*le="+Inf"} ' ||
    { echo "serve-smoke: no timer histogram buckets in exposition" >&2; exit 1; }
echo "$PROM" | grep -q 'demon_serve_queue_depth{ns="smoke"} ' ||
    { echo "serve-smoke: per-namespace labelled gauge missing" >&2; exit 1; }
echo "$PROM" | grep -q '^demon_runtime_goroutines ' ||
    { echo "serve-smoke: runtime collector gauges missing" >&2; exit 1; }
# Every sample line must be NAME{labels} VALUE — no malformed stragglers.
BAD=$(echo "$PROM" | grep -v '^#' | grep -Ev '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9+.eInf-]+$' || true)
if [ -n "$BAD" ]; then
    echo "serve-smoke: malformed exposition line(s):" >&2
    echo "$BAD" >&2
    exit 1
fi

echo "serve-smoke: SIGTERM drains and exits cleanly"
kill -TERM "$SRV_PID"
wait "$SRV_PID"

echo "serve-smoke: restart resumes the namespace and the feed stays idempotent"
start_server
curl -fsS "http://$ADDR/namespacesz" | grep -q '"t": 4'
RESUME=$(bin/demon-feed -url "http://$ADDR" -ns smoke < "$ROOT/blocks.ndjson" 2>/dev/null)
echo "$RESUME" | grep -q '"read":4' && echo "$RESUME" | grep -q '"sent":0' ||
    { echo "serve-smoke: post-restart feed re-sent durable blocks: $RESUME" >&2; exit 1; }

kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=

echo "serve-smoke: every stderr line is a JSON record, the traced ingest's carry its trace ID"
jq -e -s 'length > 0 and all(.[]; has("ts") and has("level") and has("msg"))' "$LOG" >/dev/null ||
    { echo "serve-smoke: stderr is not all JSON records with ts, level, msg:" >&2; cat "$LOG" >&2; exit 1; }
jq -e -s '[.[] | select(.path == "/v1/namespaces/traced/blocks")]
          | length > 0 and all(.[]; .trace == "smoke-trace")' "$LOG" >/dev/null ||
    { echo "serve-smoke: the traced ingest's log lines lack trace=smoke-trace:" >&2; grep traced "$LOG" >&2; exit 1; }
jq -e -s 'any(.[]; .msg == "namespace checkpointed" and .ns == "smoke" and .t == 4)' "$LOG" >/dev/null ||
    { echo "serve-smoke: no drain checkpoint record for the smoke namespace" >&2; exit 1; }

echo "serve-smoke: OK"

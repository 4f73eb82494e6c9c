#!/bin/sh
# Fault-injection harness for the hardened `ckptwf serve` daemon.
#
# Drives the daemon through the fail-stop events its serving layer must
# survive — concurrent clients, a hung (slowloris) client, a malformed
# flood, over-capacity shedding, SIGTERM mid-traffic, kill -9 leaving a
# stale socket, a heavy batch beside a cheap connection, SIGTERM after
# a burst, a long run of sequential connections, concurrent and capped
# cold misses, a request whose "op" is not a string — and asserts that
# well-formed clients keep getting answers identical (modulo timing
# fields) to the one-shot CLI, that the bad clients get structured
# NDJSON errors, and that the lifecycle contract holds (drain exits 0,
# socket file removed, stale socket reclaimed on restart).
#
#   usage: serve_fault.sh [LOGFILE]
#
# The full transcript goes to LOGFILE (default serve_fault.log — CI
# uploads it as an artifact); the console gets one line per scenario.
set -eu
cd "$(dirname "$0")/.."

CKPTWF=${CKPTWF:-_build/default/bin/ckptwf.exe}
PROBE=${PROBE:-_build/default/bin/serve_probe.exe}
LOG=${1:-serve_fault.log}
PORT=${SERVE_FAULT_PORT:-17423}

TMP=$(mktemp -d "${TMPDIR:-/tmp}/ckptwf-serve-fault.XXXXXX")
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill -9 "$DPID" 2> /dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

SOCK="$TMP/daemon.sock"

# timing fields and the racing hit/miss marker differ run to run; the
# rest of every answer must be byte-identical
normalize() {
    sed -e 's/"elapsed_ms":[0-9.e+-]*/"elapsed_ms":0/' \
        -e 's/"cache":"\(hit\|miss\)"/"cache":"_"/' "$1"
}

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

start_daemon() {
    # start_daemon EXTRA-ARGS...: launches on $SOCK and waits for the
    # "serving on" banner — the socket file alone is not enough, since
    # a stale file from a killed daemon predates the restart
    : > "$TMP/daemon.err"
    "$CKPTWF" serve --socket "$SOCK" "$@" 2>> "$TMP/daemon.err" &
    DPID=$!
    i=0
    while ! grep -q "serving on" "$TMP/daemon.err" 2> /dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "daemon did not come up on $SOCK"
        sleep 0.1
    done
}

wait_daemon() {
    # wait_daemon SCENARIO [SECONDS]: reap the daemon, leaving it at
    # most SECONDS (default 10) to exit; one still running then is
    # killed and fails SCENARIO, so a drain that hangs fails the
    # harness instead of hanging it. Sets $status
    i=0
    while kill -0 "$DPID" 2> /dev/null; do
        i=$((i + 1))
        if [ "$i" -gt "$((${2:-10} * 10))" ]; then
            kill -9 "$DPID" 2> /dev/null || true
            DPID=""
            fail "$1: the daemon did not exit within ${2:-10} s"
        fi
        sleep 0.1
    done
    status=0
    wait "$DPID" || status=$?
    DPID=""
}

stop_daemon() {
    # stop_daemon SCENARIO: graceful stop; asserts the drain contract
    # every time
    kill -TERM "$DPID"
    wait_daemon "$1"
    [ "$status" -eq 0 ] || fail "$1: SIGTERM drain exited $status, want 0"
    [ -e "$SOCK" ] && fail "$1: drained daemon left its socket file behind"
    return 0
}

main() {
    echo "# serve fault-injection harness: $(date -u +%Y-%m-%dT%H:%M:%SZ)"

    cat > "$TMP/reqs.ndjson" <<'EOF'
{"id": 1, "op": "plan", "workflow": "genome", "tasks": 50, "seed": 7, "processors": 5, "strategy": "some"}
{"id": 2, "op": "evaluate", "workflow": "genome", "tasks": 50, "seed": 7, "processors": 5}
{"id": 3, "op": "plan", "workflow": "genome", "tasks": 50, "seed": 7, "processors": 5, "strategy": "all"}
EOF

    echo "== baseline: one-shot CLI answers for the same batch =="
    "$CKPTWF" serve --once < "$TMP/reqs.ndjson" > "$TMP/baseline.ndjson" 2> /dev/null
    normalize "$TMP/baseline.ndjson" > "$TMP/baseline.norm"
    cat "$TMP/baseline.norm"
    # cross-check against the actual one-shot subcommand, not just serve
    em_once=$("$CKPTWF" evaluate --workflow genome --tasks 50 --seed 7 --processors 5 \
        2> /dev/null | sed -n 's/.*EM(CKPTSOME) = \([0-9.]*\) s.*/\1/p')
    grep -q "\"em_some\":\"$em_once\"" "$TMP/baseline.norm" \
        || fail "serve baseline em_some does not match one-shot evaluate ($em_once)"

    echo "== scenario 1: 4 concurrent clients, one hung, one flooding malformed =="
    start_daemon --request-timeout 2 --max-clients 8
    for i in $(seq 60); do printf '{"op": [[[[\n'; done > "$TMP/flood.ndjson"
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/good1.ndjson" &
    G1=$!
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/good2.ndjson" &
    G2=$!
    "$PROBE" --unix "$SOCK" --partial '{"op": "pl' --hold 4 > "$TMP/hung.ndjson" &
    HU=$!
    "$PROBE" --unix "$SOCK" --send "$TMP/flood.ndjson" > "$TMP/flood.out" &
    FL=$!
    wait "$G1" || fail "good client 1 failed"
    wait "$G2" || fail "good client 2 failed"
    wait "$FL" || fail "flood client failed"
    wait "$HU" || fail "hung client failed"
    normalize "$TMP/good1.ndjson" | diff -u "$TMP/baseline.norm" - \
        || fail "good client 1 answers differ from one-shot CLI"
    normalize "$TMP/good2.ndjson" | diff -u "$TMP/baseline.norm" - \
        || fail "good client 2 answers differ from one-shot CLI"
    [ "$(grep -c '"error":"parse"' "$TMP/flood.out")" -eq 60 ] \
        || fail "flood client: want 60 structured parse errors, got $(grep -c '"error":"parse"' "$TMP/flood.out" || true)"
    grep -q '"error":"deadline"' "$TMP/hung.ndjson" \
        || fail "hung client got no structured deadline answer"
    kill -0 "$DPID" 2> /dev/null || fail "daemon died during scenario 1"
    # and it still answers fresh traffic afterwards
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/after.ndjson"
    normalize "$TMP/after.ndjson" | diff -u "$TMP/baseline.norm" - \
        || fail "post-fault client answers differ from one-shot CLI"
    stop_daemon "scenario 1"
    echo "scenario 1 ok"

    echo "== scenario 2: --max-clients sheds with a one-line busy answer =="
    start_daemon --request-timeout 5 --max-clients 2
    "$PROBE" --unix "$SOCK" --hold 3 > /dev/null &
    H1=$!
    "$PROBE" --unix "$SOCK" --hold 3 > /dev/null &
    H2=$!
    sleep 0.5
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/shed.ndjson"
    grep -q '"error":"busy"' "$TMP/shed.ndjson" \
        || fail "over-cap client was not shed with a busy answer"
    [ "$(wc -l < "$TMP/shed.ndjson")" -eq 1 ] \
        || fail "busy response must be exactly one line"
    wait "$H1" "$H2" || true
    # capacity freed: the same client is served now
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/unshed.ndjson"
    normalize "$TMP/unshed.ndjson" | diff -u "$TMP/baseline.norm" - \
        || fail "client after shed window differs from one-shot CLI"
    stop_daemon "scenario 2"
    echo "scenario 2 ok"

    echo "== scenario 3: SIGTERM drains the in-flight connection, exits 0, removes socket =="
    start_daemon --request-timeout 3
    "$PROBE" --unix "$SOCK" --partial '{"op": "st' --hold 1 > "$TMP/drain.ndjson" &
    DR=$!
    sleep 0.5
    kill -TERM "$DPID"
    wait_daemon "scenario 3"
    [ "$status" -eq 0 ] || fail "SIGTERM with in-flight connection exited $status, want 0"
    [ -e "$SOCK" ] && fail "SIGTERM drain left the socket file behind"
    wait "$DR" || fail "in-flight client failed during drain"
    grep -q '"error":"deadline"' "$TMP/drain.ndjson" \
        || fail "in-flight hung client was not answered during the drain"
    echo "scenario 3 ok"

    echo "== scenario 4: kill -9 mid-request leaves a stale socket; restart reclaims it =="
    start_daemon --request-timeout 5
    "$PROBE" --unix "$SOCK" --partial '{"op": "pl' --hold 5 > /dev/null &
    K9=$!
    sleep 0.3
    kill -9 "$DPID"
    wait "$DPID" 2> /dev/null || true
    DPID=""
    wait "$K9" || true
    [ -S "$SOCK" ] || fail "kill -9 did not leave a stale socket (test premise broken)"
    start_daemon
    grep -q "removing stale socket" "$TMP/daemon.err" \
        || fail "restart did not report reclaiming the stale socket"
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/reclaim.ndjson"
    normalize "$TMP/reclaim.ndjson" | diff -u "$TMP/baseline.norm" - \
        || fail "restarted daemon answers differ from one-shot CLI"
    stop_daemon "scenario 4"
    echo "scenario 4 ok"

    echo "== scenario 5: a second daemon refuses a live socket =="
    start_daemon
    status=0
    "$CKPTWF" serve --socket "$SOCK" 2> "$TMP/second.err" || status=$?
    [ "$status" -eq 2 ] || fail "second daemon on a live socket exited $status, want 2"
    grep -q "already serving" "$TMP/second.err" \
        || fail "second daemon printed no already-serving diagnostic"
    kill -0 "$DPID" 2> /dev/null || fail "incumbent daemon died"
    "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > /dev/null \
        || fail "incumbent daemon stopped serving"
    stop_daemon "scenario 5"
    echo "scenario 5 ok"

    echo "== scenario 6: TCP listener speaks the same protocol =="
    start_daemon --tcp "$PORT" --request-timeout 2
    "$PROBE" --tcp "$PORT" --send "$TMP/reqs.ndjson" > "$TMP/tcp.ndjson"
    normalize "$TMP/tcp.ndjson" | diff -u "$TMP/baseline.norm" - \
        || fail "TCP answers differ from one-shot CLI"
    stop_daemon "scenario 6"
    echo "scenario 6 ok"

    echo "== scenario 7: --cache-cap bounds the resident caches (evictions in stats) =="
    start_daemon --cache-cap 2
    {
        for seed in 1 2 3 4; do
            printf '{"op": "plan", "workflow": "genome", "tasks": 40, "seed": %d, "processors": 5}\n' "$seed"
        done
        printf '{"op": "stats"}\n'
    } > "$TMP/cap.ndjson"
    "$PROBE" --unix "$SOCK" --send "$TMP/cap.ndjson" > "$TMP/cap.out"
    stats_line=$(grep '"op":"stats"' "$TMP/cap.out")
    echo "$stats_line"
    # 4 distinct configurations through cap-2 caches: the batch builds
    # each setup and plan once and evicts two of each, and the counters
    # must be visible in the stats answer
    echo "$stats_line" | grep -q '"setup_misses":4,"setup_evictions":2,' \
        || fail "want 4 setup misses and 2 evictions in stats: $stats_line"
    echo "$stats_line" | grep -q '"plan_misses":4,"plan_evictions":2,' \
        || fail "want 4 plan misses and 2 evictions in stats: $stats_line"
    stop_daemon "scenario 7"
    echo "scenario 7 ok"

    echo "== scenario 8: store counters survive concurrent handler domains =="
    # three clients run the same store-carrying degrade request at
    # once; each must see the identical (deterministic) per-request
    # store counters, and the daemon's aggregate must be exactly the
    # sum — a torn read-modify-write under domain concurrency would
    # break either assertion
    start_daemon --request-timeout 30 --max-clients 8
    cat > "$TMP/store_req.ndjson" <<'EOF'
{"id": 1, "op": "degrade", "workflow": "genome", "tasks": 40, "seed": 7, "processors": 5, "strategy": "some", "pdeath": 0.2, "trials": 40, "corrupt_prob": 0.25, "store_policy": "every-2"}
EOF
    "$PROBE" --unix "$SOCK" --send "$TMP/store_req.ndjson" > "$TMP/store1.ndjson" &
    S1=$!
    "$PROBE" --unix "$SOCK" --send "$TMP/store_req.ndjson" > "$TMP/store2.ndjson" &
    S2=$!
    "$PROBE" --unix "$SOCK" --send "$TMP/store_req.ndjson" > "$TMP/store3.ndjson" &
    S3=$!
    wait "$S1" || fail "store client 1 failed"
    wait "$S2" || fail "store client 2 failed"
    wait "$S3" || fail "store client 3 failed"
    commits=$(sed -n 's/.*"store_commits":\([0-9][0-9]*\).*/\1/p' "$TMP/store1.ndjson")
    corrupt=$(sed -n 's/.*"store_corrupt_reads":\([0-9][0-9]*\).*/\1/p' "$TMP/store1.ndjson")
    [ -n "$commits" ] && [ "$commits" -gt 0 ] \
        || fail "store request answer carries no store_commits: $(cat "$TMP/store1.ndjson")"
    [ -n "$corrupt" ] && [ "$corrupt" -gt 0 ] \
        || fail "corrupt_prob 0.25 produced no corrupt reads: $(cat "$TMP/store1.ndjson")"
    # the replan-cache hit/miss split depends on how the three racing
    # handlers interleave; the store counters must not
    store_fields() {
        sed -n 's/.*\("store_commits":.*"store_evictions":[0-9][0-9]*\).*/\1/p' "$1"
    }
    store_fields "$TMP/store1.ndjson" > "$TMP/store1.fields"
    for f in store2 store3; do
        store_fields "$TMP/$f.ndjson" | diff -u "$TMP/store1.fields" - > /dev/null \
            || fail "concurrent store answers differ ($f vs store1)"
    done
    printf '{"op": "stats"}\n' > "$TMP/stats_req.ndjson"
    "$PROBE" --unix "$SOCK" --send "$TMP/stats_req.ndjson" > "$TMP/store_stats.ndjson"
    stats_line=$(cat "$TMP/store_stats.ndjson")
    echo "$stats_line"
    echo "$stats_line" | grep -q '"store_ops":3' \
        || fail "want store_ops 3 in stats: $stats_line"
    total=$(echo "$stats_line" | sed -n 's/.*"store_commits":\([0-9][0-9]*\).*/\1/p')
    [ "$total" = "$((3 * commits))" ] \
        || fail "aggregate store_commits $total != 3 x $commits (lost update under concurrency)"
    total_corrupt=$(echo "$stats_line" | sed -n 's/.*"store_corrupt_reads":\([0-9][0-9]*\).*/\1/p')
    [ "$total_corrupt" = "$((3 * corrupt))" ] \
        || fail "aggregate store_corrupt_reads $total_corrupt != 3 x $corrupt"
    stop_daemon "scenario 8"
    echo "scenario 8 ok"

    echo "== scenario 9: an out-of-range request gets a structured error, the batch goes on =="
    # "trials": 0 trips a library argument check; the daemon must answer
    # it with ok:false and still answer the request after it
    start_daemon --request-timeout 30
    cat > "$TMP/range_req.ndjson" <<'EOF'
{"id": 1, "op": "stats"}
{"id": 2, "op": "degrade", "workflow": "genome", "tasks": 40, "seed": 7, "processors": 5, "strategy": "some", "pdeath": 0.2, "trials": 0}
{"id": 3, "op": "stats"}
EOF
    "$PROBE" --unix "$SOCK" --send "$TMP/range_req.ndjson" > "$TMP/range.ndjson"
    cat "$TMP/range.ndjson"
    [ "$(wc -l < "$TMP/range.ndjson")" -eq 3 ] \
        || fail "want 3 answers to the 3-request batch, got $(wc -l < "$TMP/range.ndjson")"
    sed -n 2p "$TMP/range.ndjson" | grep -q '"id":2,"op":"degrade","ok":false' \
        || fail "out-of-range degrade was not answered with ok:false"
    sed -n 3p "$TMP/range.ndjson" | grep -q '"id":3,"op":"stats","ok":true' \
        || fail "the request after the out-of-range one was not answered"
    grep -q "connection handler failed" "$TMP/daemon.err" \
        && fail "the connection handler died on the out-of-range request"
    stop_daemon "scenario 9"
    echo "scenario 9 ok"

    echo "== scenario 10: a cheap connection is answered while a heavy batch computes =="
    # 60 distinct GENOME n=1000 p=2 plans keep one handler busy for
    # seconds; a second connection must not queue behind it. The check
    # is on the order of events, not on a time bound: once the daemon
    # has started the heavy batch, the cheap answers must arrive while
    # the heavy client is still waiting for its own. At --jobs 1 the
    # cheap batch is sent at the heavy batch's first setup miss; at
    # --jobs 2 at its first plan miss, once its plan fan-out owns the
    # domain pool, which the cheap batch must not wait for
    for s in $(seq 60); do
        printf '{"id": %d, "op": "plan", "workflow": "genome", "tasks": 1000, "seed": %d, "processors": 2, "strategy": "some"}\n' "$s" "$s"
    done > "$TMP/heavy.ndjson"
    for run in "1 setup" "2 plan"; do
        jobs=${run% *}
        started=${run#* }
        start_daemon --max-clients 8 --jobs "$jobs"
        "$PROBE" --unix "$SOCK" --send "$TMP/heavy.ndjson" > "$TMP/heavy.out" &
        HV=$!
        i=0
        until "$PROBE" --unix "$SOCK" --send "$TMP/stats_req.ndjson" \
            | grep -q "\"${started}_misses\":[1-9]"; do
            i=$((i + 1))
            [ "$i" -gt 100 ] && fail "scenario 10 (--jobs $jobs): the heavy batch never started"
            sleep 0.05
        done
        "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/cheap.ndjson"
        kill -0 "$HV" 2> /dev/null \
            || fail "scenario 10 (--jobs $jobs): the heavy batch was answered before the cheap connection: it waited behind it"
        normalize "$TMP/cheap.ndjson" | diff -u "$TMP/baseline.norm" - \
            || fail "cheap answers during the heavy batch differ from one-shot CLI"
        wait "$HV" || fail "heavy client failed"
        [ "$(grep -c '"ok":true' "$TMP/heavy.out")" -eq 60 ] \
            || fail "heavy client: want 60 answers, got $(grep -c '"ok":true' "$TMP/heavy.out" || true)"
        stop_daemon "scenario 10 (--jobs $jobs)"
    done
    echo "scenario 10 ok"

    echo "== scenario 11: SIGTERM drains a daemon whose handlers are all idle =="
    # a burst of concurrent clients leaves handlers behind with no
    # connection to serve; the drain must still end within 5 s
    start_daemon --max-clients 8
    pids=""
    for c in 1 2 3 4 5 6; do
        "$PROBE" --unix "$SOCK" --send "$TMP/reqs.ndjson" > "$TMP/burst$c.ndjson" &
        pids="$pids $!"
    done
    for p in $pids; do
        wait "$p" || fail "burst client failed"
    done
    for c in 1 2 3 4 5 6; do
        normalize "$TMP/burst$c.ndjson" | diff -u "$TMP/baseline.norm" - \
            || fail "burst client $c answers differ from one-shot CLI"
    done
    kill -TERM "$DPID"
    wait_daemon "scenario 11" 5
    [ "$status" -eq 0 ] || fail "SIGTERM drain after the burst exited $status, want 0"
    [ -e "$SOCK" ] && fail "drained daemon left its socket file behind"
    echo "scenario 11 ok"

    echo "== scenario 12: 100 sequential connections answer as one --once batch =="
    # one request per connection, cycling through plan, evaluate,
    # degrade and a malformed line: whichever handler serves a
    # connection, no state of an earlier one may leak into its answer.
    # The reference is a --once daemon answering the four as one batch;
    # the degrade answer's replan-cache counters are cumulative, so
    # they are masked with the timing fields
    cat > "$TMP/cycle.ndjson" <<'EOF'
{"id": 1, "op": "plan", "workflow": "genome", "tasks": 40, "seed": 3, "processors": 4, "strategy": "some"}
{"id": 2, "op": "evaluate", "workflow": "montage", "tasks": 40, "seed": 3, "processors": 4}
{"id": 3, "op": "degrade", "workflow": "genome", "tasks": 40, "seed": 3, "processors": 4, "strategy": "some", "pdeath": 0.3, "trials": 30}
{"id": 4, "op": "plan", "workflow": [
EOF
    without_counters() {
        normalize "$1" | sed -e 's/"replan_cache_\(hits\|misses\)":[0-9]*/"replan_cache_\1":_/g'
    }
    start_daemon --once
    "$PROBE" --unix "$SOCK" --send "$TMP/cycle.ndjson" > "$TMP/cycle_once.ndjson"
    wait_daemon "scenario 12"
    [ "$status" -eq 0 ] || fail "--once daemon exited $status, want 0"
    [ "$(wc -l < "$TMP/cycle_once.ndjson")" -eq 4 ] \
        || fail "--once daemon: want 4 answers, got $(wc -l < "$TMP/cycle_once.ndjson")"
    start_daemon --max-clients 8
    : > "$TMP/cycle_want.ndjson"
    : > "$TMP/cycle_seq.ndjson"
    for i in $(seq 0 99); do
        k=$((i % 4 + 1))
        sed -n "${k}p" "$TMP/cycle.ndjson" > "$TMP/cycle_one.ndjson"
        sed -n "${k}p" "$TMP/cycle_once.ndjson" >> "$TMP/cycle_want.ndjson"
        "$PROBE" --unix "$SOCK" --send "$TMP/cycle_one.ndjson" >> "$TMP/cycle_seq.ndjson" \
            || fail "sequential connection $i failed"
    done
    without_counters "$TMP/cycle_want.ndjson" > "$TMP/cycle_want.norm"
    without_counters "$TMP/cycle_seq.ndjson" | diff -u "$TMP/cycle_want.norm" - \
        || fail "sequential connections differ from the --once batch"
    stop_daemon "scenario 12"
    echo "scenario 12 ok"

    echo "== scenario 13: 4 connections that miss one cold plan build it once =="
    # four clients send the same cold GENOME n=1000 p=2 plan at once:
    # the first to look the setup and the plan up builds them, and the
    # other three wait for those values, count hits and answer "hit"
    start_daemon --max-clients 8
    printf '{"op": "plan", "workflow": "genome", "tasks": 1000, "seed": 61, "processors": 2, "strategy": "some"}\n' \
        > "$TMP/cold.ndjson"
    pids=""
    for c in 1 2 3 4; do
        "$PROBE" --unix "$SOCK" --send "$TMP/cold.ndjson" > "$TMP/cold$c.ndjson" &
        pids="$pids $!"
    done
    for p in $pids; do
        wait "$p" || fail "cold client failed"
    done
    normalize "$TMP/cold1.ndjson" > "$TMP/cold1.norm"
    for c in 2 3 4; do
        normalize "$TMP/cold$c.ndjson" | diff -u "$TMP/cold1.norm" - \
            || fail "scenario 13: cold client $c answered differently"
    done
    misses=$(cat "$TMP"/cold[1-4].ndjson | grep -c '"cache":"miss"' || true)
    [ "$misses" -eq 1 ] || fail "scenario 13: want one \"cache\":\"miss\" among 4 answers, got $misses"
    stats_line=$("$PROBE" --unix "$SOCK" --send "$TMP/stats_req.ndjson")
    echo "$stats_line"
    echo "$stats_line" | grep -q '"setup_hits":3,"setup_misses":1,' \
        || fail "scenario 13: want the setup built once: $stats_line"
    echo "$stats_line" | grep -q '"plan_hits":3,"plan_misses":1,.*"plan_races":0,' \
        || fail "scenario 13: want the plan built once: $stats_line"
    stop_daemon "scenario 13"
    echo "scenario 13 ok"

    echo "== scenario 14: a batch through cap-1 caches builds each setup and plan once =="
    # three degrades on distinct setups: each setup and plan is built
    # once, for its request, and the caps evict the two older ones;
    # the answers read the plans the batch holds, never a rebuild
    start_daemon --cache-cap 1
    {
        for seed in 1 2 3; do
            printf '{"id": %d, "op": "degrade", "workflow": "genome", "tasks": 40, "seed": %d, "processors": 4, "strategy": "some", "pdeath": 0.2, "trials": 30}\n' "$seed" "$seed"
        done
        printf '{"op": "stats"}\n'
    } > "$TMP/cap1.ndjson"
    "$PROBE" --unix "$SOCK" --send "$TMP/cap1.ndjson" > "$TMP/cap1.out"
    stats_line=$(grep '"op":"stats"' "$TMP/cap1.out")
    echo "$stats_line"
    echo "$stats_line" | grep -q '"setup_misses":3,"setup_evictions":2,' \
        || fail "scenario 14: want 3 setup misses and 2 evictions: $stats_line"
    echo "$stats_line" | grep -q '"plan_misses":3,"plan_evictions":2,' \
        || fail "scenario 14: want 3 plan misses and 2 evictions: $stats_line"
    stop_daemon "scenario 14"
    echo "scenario 14 ok"

    echo "== scenario 15: a request whose \"op\" is not a string gets a parse answer, the batch goes on =="
    # the batch's decoding pass must leave such a request to its answer,
    # not lose the whole connection's answers; a stats request is
    # answered before the requests after it are looked up
    start_daemon
    cat > "$TMP/op_num.ndjson" <<'EOF'
{"id": 1, "op": "stats"}
{"id": 2, "op": 5}
{"id": 3, "op": "plan", "workflow": "genome", "tasks": 40, "seed": 3, "processors": 4, "strategy": "some"}
EOF
    "$PROBE" --unix "$SOCK" --send "$TMP/op_num.ndjson" > "$TMP/op_num.out"
    cat "$TMP/op_num.out"
    [ "$(wc -l < "$TMP/op_num.out")" -eq 3 ] \
        || fail "scenario 15: want 3 answers to the 3-request batch, got $(wc -l < "$TMP/op_num.out")"
    sed -n 1p "$TMP/op_num.out" | grep -q '"id":1,"op":"stats","ok":true' \
        || fail "scenario 15: the request before the bad one was not answered"
    # the stats answer comes before the plan: it counts no lookup of it
    sed -n 1p "$TMP/op_num.out" | grep -q '"setup_misses":0,.*"plan_misses":0,' \
        || fail "scenario 15: the leading stats answer counts a later request's lookups"
    sed -n 2p "$TMP/op_num.out" | grep -q '"id":2,"op":5,"ok":false,"error":"parse"' \
        || fail "scenario 15: the non-string op was not answered with a parse error"
    sed -n 3p "$TMP/op_num.out" | grep -q '"id":3,"op":"plan","ok":true' \
        || fail "scenario 15: the request after the bad one was not answered"
    grep -q "connection handler failed" "$TMP/daemon.err" \
        && fail "scenario 15: the connection handler died on the non-string op"
    stop_daemon "scenario 15"
    echo "scenario 15 ok"

    echo "# all serve fault scenarios passed"
}

: > "$LOG"
if main >> "$LOG" 2>&1; then
    grep -E '^(#|==|scenario)' "$LOG"
else
    echo "serve_fault.sh: FAILED — transcript follows" >&2
    cat "$LOG" >&2
    exit 1
fi

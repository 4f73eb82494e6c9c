#!/bin/sh
# Repo-wide check: build, unit/property tests, then the end-to-end
# crash/resume smoke test.  This is what CI (and a reviewer) should run.
#
# The performance-critical libraries (prob, parallel, evaluation,
# simulation) carry (flags (:standard -warn-error +a)) in their dune
# stanzas, so any new compiler warning in them fails the build step.
set -eu
cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== bench/run_smoke.sh =="
sh bench/run_smoke.sh

echo "== sweep output is independent of --jobs =="
CKPTWF=_build/default/bin/ckptwf.exe
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ckptwf-check.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM
SWEEP="--workflow genome --tasks 50 --seed 7 --processors 5 --method pathapprox --csv"
$CKPTWF sweep $SWEEP --jobs 1 > "$TMP/jobs1.csv"
$CKPTWF sweep $SWEEP --jobs 4 > "$TMP/jobs4.csv"
diff -u "$TMP/jobs1.csv" "$TMP/jobs4.csv"

echo "== completed workflows: sweep independent of --jobs, crash/resume =="
# MONTAGE needs bipartite completion (GENOME above gets no dummy edges):
# the sweep recognises and schedules once, then reprices every cell
MONTAGE="--workflow montage --tasks 300 --seed 7 --processors 18 --csv"
$CKPTWF sweep $MONTAGE --jobs 1 > "$TMP/montage1.csv"
$CKPTWF sweep $MONTAGE --jobs 4 > "$TMP/montage4.csv"
diff -u "$TMP/montage1.csv" "$TMP/montage4.csv"
status=0
$CKPTWF sweep $MONTAGE --journal "$TMP/montage.journal" --fail-after 3 \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: injected MONTAGE sweep crash exited $status, want 1" >&2
    exit 1
fi
$CKPTWF sweep $MONTAGE --journal "$TMP/montage.journal" --resume \
    > "$TMP/montageres.csv" 2> "$TMP/montageres.err"
diff -u "$TMP/montage1.csv" "$TMP/montageres.csv"
grep -q "3 cell(s) reused, 7 computed" "$TMP/montageres.err" || {
    echo "FAIL: resumed MONTAGE sweep did not reuse exactly the 3 journaled cells:" >&2
    cat "$TMP/montageres.err" >&2
    exit 1
}

echo "== completed workflows: printed output matches the golden =="
# MONTAGE needs bipartite completion at every size (LIGO completes one
# small cut): the stdout of every subcommand that reads a completed
# workflow is pinned byte for byte in test/completed_golden.txt
while read -r args; do
    echo "\$ ckptwf $args"
    $CKPTWF $args 2> /dev/null
done > "$TMP/completed_golden.txt" <<'EOF'
generate -w montage -n 1000
schedule -v -w montage -n 50 -p 2
sweep --csv -w montage -n 50 -p 1
evaluate -w montage -n 300 -p 18 --method dodin
evaluate -w montage -n 300 -p 18 --method normal
evaluate -w montage -n 300 -p 18 --method montecarlo
evaluate -w ligo -n 300 -p 18 --method dodin
quantiles -w montage -n 50 -p 4 --trials 200
simulate -w montage -n 50 -p 4 --trials 200
contention -w montage -n 50 -p 4 --trials 50
degrade --csv -w montage -n 300 -p 18 --trials 20
cloud -w montage -n 300 -p 18 --trials 20
EOF
diff -u test/completed_golden.txt "$TMP/completed_golden.txt"

echo "== long superchains: printed output matches the golden =="
# small p gives superchains of hundreds of tasks, whose cost tables
# are often Monge: the stdout of sweeps and budgeted quantiles over
# them is pinned byte for byte in test/long_chain_golden.txt
while read -r args; do
    echo "\$ ckptwf $args"
    $CKPTWF $args 2> /dev/null
done > "$TMP/long_chain_golden.txt" <<'EOF'
sweep --csv -w genome -n 300 -p 1 --pfail 0.001
sweep --csv -w genome -n 300 -p 2 --pfail 0.0001
sweep --csv -w montage -n 1000 -p 1 --pfail 0.0001
sweep --csv -w montage -n 1000 -p 2 --pfail 0.001
quantiles -w montage -n 1000 -p 2 --strategy budget-5 --trials 200
quantiles -w genome -n 300 -p 1 --ccr 0.001 --strategy budget-10 --trials 200
EOF
diff -u test/long_chain_golden.txt "$TMP/long_chain_golden.txt"

echo "== journal keys tell apart knob values that agree to six digits =="
# a resume at a nearby pfail (sweep) or ccr (degrade) must recompute,
# not replay the rows journaled for the other value
NEAR="--workflow genome --tasks 50 --processors 5 --csv"
$CKPTWF sweep $NEAR --pfail 0.01 --journal "$TMP/near.journal" > /dev/null 2>&1
$CKPTWF sweep $NEAR --pfail 0.0100000049 --journal "$TMP/near.journal" --resume \
    > "$TMP/near_res.csv" 2> /dev/null
$CKPTWF sweep $NEAR --pfail 0.0100000049 > "$TMP/near_fresh.csv"
diff -u "$TMP/near_fresh.csv" "$TMP/near_res.csv"
NEARDEG="--workflow genome --tasks 50 --processors 5 --trials 50 --pdeath 0.1 --csv"
$CKPTWF degrade $NEARDEG --ccr 0.5 --journal "$TMP/neardeg.journal" > /dev/null 2>&1
$CKPTWF degrade $NEARDEG --ccr 0.5000004 --journal "$TMP/neardeg.journal" --resume \
    > "$TMP/neardeg_res.csv" 2> /dev/null
$CKPTWF degrade $NEARDEG --ccr 0.5000004 > "$TMP/neardeg_fresh.csv" 2> /dev/null
diff -u "$TMP/neardeg_fresh.csv" "$TMP/neardeg_res.csv"

echo "== CLI surface: every subcommand keeps every flag name =="
# the sorted --flag names of each subcommand's plain help, against the
# committed golden: a refactor can neither drop nor rename a flag
for sub in accuracy cloud contention degrade evaluate export gantt generate quantiles schedule serve simulate storm sweep; do
    $CKPTWF "$sub" --help=plain | grep -oE -- '--[a-z-]+' | LC_ALL=C sort -u | sed "s/^/$sub /"
done > "$TMP/cli_surface.txt"
diff -u test/cli_surface.txt "$TMP/cli_surface.txt"

echo "== malformed DAX exits 2 with a one-line diagnostic, every subcommand =="
printf '<adag>\n  <job id="ID1" runtime="not-a-number"/>\n</adag>\n' > "$TMP/bad.dax"
for sub in generate schedule evaluate simulate sweep accuracy gantt contention quantiles degrade storm cloud; do
    status=0
    $CKPTWF "$sub" --dax "$TMP/bad.dax" > /dev/null 2> "$TMP/bad.err" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $sub on malformed DAX exited $status, want 2" >&2
        exit 1
    fi
    if [ "$(wc -l < "$TMP/bad.err")" -ne 1 ]; then
        echo "FAIL: $sub on malformed DAX printed more than one diagnostic line:" >&2
        cat "$TMP/bad.err" >&2
        exit 1
    fi
done

echo "== out-of-range numbers exit 2 with a one-line diagnostic =="
# the libraries reject these with Invalid_argument; the CLI must report
# bad input (exit 2), never an uncaught exception (exit 125). NaN fails
# every range check too, instead of printing nan rows
while read -r args; do
    status=0
    $CKPTWF $args > /dev/null 2> "$TMP/range.err" || status=$?
    if [ "$status" -ne 2 ] || [ "$(wc -l < "$TMP/range.err")" -ne 1 ]; then
        echo "FAIL: ckptwf $args exited $status, want 2 with one diagnostic line:" >&2
        cat "$TMP/range.err" >&2
        exit 1
    fi
done <<'EOF'
evaluate -p 0
evaluate -n 0
evaluate --pfail 2
degrade -n 30 -p 5 --trials 0
storm -n 30 -p 5 --trials 0
cloud -n 30 -p 5 --trials 0
quantiles -n 30 -p 5 --trials 0
evaluate --pfail=nan
evaluate --ccr=nan
sweep --csv --pfail=nan
storm --corrupt-prob=nan
simulate --pfail=nan
quantiles --pfail=nan
degrade --pdeath=nan
EOF
status=0
printf '{"op": "evaluate", "processors": 0}\n' | $CKPTWF serve --once > /dev/null 2> "$TMP/range.err" || status=$?
if [ "$status" -ne 2 ] || [ "$(wc -l < "$TMP/range.err")" -ne 1 ]; then
    echo "FAIL: serve --once with processors 0 exited $status, want 2 with one line:" >&2
    cat "$TMP/range.err" >&2
    exit 1
fi

echo "== degraded mode: output independent of --jobs, crash/resume, repair wins =="
DEGRADE="--workflow genome --tasks 50 --seed 7 --processors 5 --strategy some --trials 60 --csv"
$CKPTWF degrade $DEGRADE --jobs 1 > "$TMP/deg1.csv"
$CKPTWF degrade $DEGRADE --jobs 4 > "$TMP/deg4.csv"
diff -u "$TMP/deg1.csv" "$TMP/deg4.csv"
# crash after 2 cells (simulated fail-stop, exit 1), then resume: the
# resumed run must reproduce the uninterrupted output bytes exactly
status=0
$CKPTWF degrade $DEGRADE --jobs 4 --journal "$TMP/deg.journal" --fail-after 2 \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: injected degrade crash exited $status, want 1" >&2
    exit 1
fi
$CKPTWF degrade $DEGRADE --jobs 4 --journal "$TMP/deg.journal" --resume \
    > "$TMP/degres.csv" 2> /dev/null
diff -u "$TMP/deg1.csv" "$TMP/degres.csv"
# online repair must beat restart-from-scratch in expectation on every row
awk -F, 'NR > 1 { if ($8 + 0 > $9 + 0) { print "FAIL: repair " $8 " worse than restart " $9 " at pdeath " $7; exit 1 } }' \
    "$TMP/deg1.csv"

echo "== journaled degrade: a repeated cell value is computed once, then reused =="
# the journal lookup for a cell happens right before that cell is
# computed, so the second --pdeath 0.1 finds the first one's row
REPEAT="--workflow genome --tasks 30 --seed 7 --processors 5 --strategy some --trials 20 --pdeath 0.1 --pdeath 0.1 --csv"
$CKPTWF degrade $REPEAT > "$TMP/repeat.csv" 2> /dev/null
$CKPTWF degrade $REPEAT --journal "$TMP/repeat.journal" \
    > "$TMP/repeat_journal.csv" 2> "$TMP/repeat.err"
diff -u "$TMP/repeat.csv" "$TMP/repeat_journal.csv"
grep -q "1 cell(s) reused, 1 computed" "$TMP/repeat.err" || {
    echo "FAIL: journaled degrade with a repeated --pdeath did not reuse the cell:" >&2
    cat "$TMP/repeat.err" >&2
    exit 1
}

echo "== degrade replan cache reports a nonzero hit rate =="
# ckptwf prints "ckptwf: replan cache: H hit(s), M miss(es) (..%)" on
# stderr after a degrade run; the structural cache must actually hit
$CKPTWF degrade $DEGRADE --jobs 1 > /dev/null 2> "$TMP/degcache.err"
hits=$(sed -n 's/.*replan cache: \([0-9][0-9]*\) hit(s).*/\1/p' "$TMP/degcache.err")
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "FAIL: degrade run reported no replan-cache hits:" >&2
    cat "$TMP/degcache.err" >&2
    exit 1
fi

echo "== journal survives truncation at an arbitrary byte offset mid-cell =="
# crash a journaled sweep mid-run, then chop the journal at a byte
# offset that tears its last line; the CRC guard must drop the torn
# tail (one stderr notice) and the resumed sweep must still reproduce
# the uninterrupted output bytes exactly
status=0
$CKPTWF sweep $SWEEP --journal "$TMP/trunc.journal" --fail-after 3 \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: injected sweep crash exited $status, want 1" >&2
    exit 1
fi
size=$(wc -c < "$TMP/trunc.journal")
truncate -s $((size - 7)) "$TMP/trunc.journal" 2>/dev/null \
    || dd if="$TMP/trunc.journal" of="$TMP/trunc.journal.cut" bs=1 count=$((size - 7)) 2>/dev/null
[ -f "$TMP/trunc.journal.cut" ] && mv "$TMP/trunc.journal.cut" "$TMP/trunc.journal"
$CKPTWF sweep $SWEEP --journal "$TMP/trunc.journal" --resume \
    > "$TMP/truncres.csv" 2> "$TMP/truncres.err"
diff -u "$TMP/jobs1.csv" "$TMP/truncres.csv"
if ! grep -q "truncated trailing entry" "$TMP/truncres.err"; then
    echo "FAIL: resumed sweep did not report the recovered torn tail:" >&2
    cat "$TMP/truncres.err" >&2
    exit 1
fi

echo "== journal format-version mismatch fails fast with exit 3 =="
# strip the version header: the file now reads as an unversioned
# (format 1) journal, and --resume must refuse it with one line
tail -n +2 "$TMP/trunc.journal" > "$TMP/old.journal"
status=0
$CKPTWF sweep $SWEEP --journal "$TMP/old.journal" --resume \
    > /dev/null 2> "$TMP/old.err" || status=$?
if [ "$status" -ne 3 ]; then
    echo "FAIL: version-mismatched resume exited $status, want 3" >&2
    exit 1
fi
if [ "$(wc -l < "$TMP/old.err")" -ne 1 ]; then
    echo "FAIL: version mismatch printed more than one diagnostic line:" >&2
    cat "$TMP/old.err" >&2
    exit 1
fi

echo "== storm: unreliable storage, --jobs invariance, crash/resume, k=2 beats k=1 =="
STORM="--workflow genome --tasks 40 --seed 7 --processors 5 --strategy all --trials 120 --commit-fail-prob 0.05"
STORM_CSV="${STORM_CSV:-$TMP/storm.csv}"
$CKPTWF storm $STORM --jobs 1 > "$STORM_CSV" 2> "$TMP/storm.err"
$CKPTWF storm $STORM --jobs 4 > "$TMP/storm4.csv" 2> /dev/null
diff -u "$STORM_CSV" "$TMP/storm4.csv"
# the sweep's whole point: at high corruption, duplicated checkpoint
# commits (k=2) must yield a lower expected makespan than k=1
awk -F, '
    NR > 1 && $7 + 0 == 0.2 { em[$5] = $10 + 0 }
    END {
        if (!(1 in em) || !(2 in em)) { print "FAIL: missing k=1/k=2 rows"; exit 1 }
        if (em[2] >= em[1]) { print "FAIL: k=2 EM " em[2] " not below k=1 EM " em[1]; exit 1 }
    }' "$STORM_CSV"
grep -q "first beats replicas=1" "$TMP/storm.err" || {
    echo "FAIL: storm printed no crossover report:" >&2
    cat "$TMP/storm.err" >&2
    exit 1
}
# crash after 4 cells, resume, byte-identical output
status=0
$CKPTWF storm $STORM --journal "$TMP/storm.journal" --fail-after 4 \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: injected storm crash exited $status, want 1" >&2
    exit 1
fi
$CKPTWF storm $STORM --journal "$TMP/storm.journal" --resume \
    > "$TMP/stormres.csv" 2> /dev/null
diff -u "$STORM_CSV" "$TMP/stormres.csv"

echo "== storage faults off reproduce the fault-free CLI output bitwise =="
SIM="--workflow genome --tasks 40 --seed 7 --processors 5 --trials 80"
$CKPTWF simulate $SIM > "$TMP/sim_plain.txt"
$CKPTWF simulate $SIM --storage-lambda 0 --corrupt-prob 0 --commit-fail-prob 0 --replicas 1 \
    > "$TMP/sim_storage_off.txt"
diff -u "$TMP/sim_plain.txt" "$TMP/sim_storage_off.txt"
$CKPTWF degrade $DEGRADE --storage-lambda 0 --corrupt-prob 0 --replicas 1 > "$TMP/deg_storage_off.csv"
diff -u "$TMP/deg1.csv" "$TMP/deg_storage_off.csv"

echo "== cloud: --jobs invariance, crash/resume, grace pays, degrade degeneration =="
CLOUD="--workflow genome --tasks 50 --seed 7 --processors 5 --strategy some --trials 120 --prevoke 0.9 --grace 0 --grace 30 --spot-fraction 0 --spot-fraction 0.4"
CLOUD_CSV="${CLOUD_CSV:-$TMP/cloud.csv}"
$CKPTWF cloud $CLOUD --jobs 1 > "$CLOUD_CSV" 2> "$TMP/cloud.err"
$CKPTWF cloud $CLOUD --jobs 4 > "$TMP/cloud4.csv" 2> /dev/null
diff -u "$CLOUD_CSV" "$TMP/cloud4.csv"
# the warning's whole point: at every price mix, a nonzero grace must
# strictly shrink the checkpointing mode's expected work lost
awk -F, '
    NR > 1 { lost[$7 "," $8] = $15 + 0; sf[$8] = 1 }
    END {
        for (f in sf) {
            if (!(("0," f) in lost) || !(("30," f) in lost)) { print "FAIL: missing grace rows at spot-fraction " f; exit 1 }
            if (lost["30," f] >= lost["0," f]) { print "FAIL: grace 30 lost " lost["30," f] " not below grace 0 lost " lost["0," f] " at spot-fraction " f; exit 1 }
        }
    }' "$CLOUD_CSV"
grep -q "cuts expected work lost" "$TMP/cloud.err" || {
    echo "FAIL: cloud printed no grace-benefit report:" >&2
    cat "$TMP/cloud.err" >&2
    exit 1
}
# crash after 2 cells, resume, byte-identical output
status=0
$CKPTWF cloud $CLOUD --journal "$TMP/cloud.journal" --fail-after 2 \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: injected cloud crash exited $status, want 1" >&2
    exit 1
fi
$CKPTWF cloud $CLOUD --journal "$TMP/cloud.journal" --resume \
    > "$TMP/cloudres.csv" 2> /dev/null
diff -u "$CLOUD_CSV" "$TMP/cloudres.csv"
# with revocations unannounced (grace 0) on a fully on-demand platform,
# the cloud trial loop degenerates bitwise to the degrade one: its
# expected makespan must equal degrade's em_repair at pdeath = prevoke
$CKPTWF cloud --workflow genome --tasks 50 --seed 7 --processors 5 --strategy some \
    --trials 60 --prevoke 0.2 --grace 0 --spot-fraction 0 > "$TMP/cloud_degen.csv" 2> /dev/null
em_cloud=$(awk -F, 'NR == 2 { print $11 }' "$TMP/cloud_degen.csv")
em_degrade=$(awk -F, 'NR > 1 && $7 + 0 == 0.2 { print $8 }' "$TMP/deg1.csv")
if [ "$em_cloud" != "$em_degrade" ]; then
    echo "FAIL: cloud em_ckpt $em_cloud != degrade em_repair $em_degrade (bitwise degeneration broken)" >&2
    exit 1
fi

echo "== checkpoint store: explicit default flags reproduce every subcommand bitwise =="
# the pluggable store's contract with history: the default in-memory
# every-segment store spelled out explicitly must change nothing, byte
# for byte, on any subcommand
STOREDEF="--store memory --store-policy every-segment"
$CKPTWF simulate $SIM $STOREDEF > "$TMP/sim_store_def.txt" 2> /dev/null
diff -u "$TMP/sim_plain.txt" "$TMP/sim_store_def.txt"
$CKPTWF sweep $SWEEP $STOREDEF --jobs 1 > "$TMP/sweep_store_def.csv" 2> /dev/null
diff -u "$TMP/jobs1.csv" "$TMP/sweep_store_def.csv"
$CKPTWF degrade $DEGRADE $STOREDEF > "$TMP/deg_store_def.csv" 2> /dev/null
diff -u "$TMP/deg1.csv" "$TMP/deg_store_def.csv"
$CKPTWF storm $STORM $STOREDEF > "$TMP/storm_store_def.csv" 2> /dev/null
diff -u "$STORM_CSV" "$TMP/storm_store_def.csv"
$CKPTWF cloud $CLOUD $STOREDEF > "$TMP/cloud_store_def.csv" 2> /dev/null
diff -u "$CLOUD_CSV" "$TMP/cloud_store_def.csv"

echo "== checkpoint store: disk journal crash mid-commit, truncation, fingerprint resume =="
# reference: an uncrashed disk-store run against a fresh store file
$CKPTWF simulate $SIM --store disk --store-path "$TMP/ref.store" \
    > "$TMP/store_ref.txt" 2> /dev/null
# crash mid-commit (injected fail-stop during a store write): exit 1
status=0
$CKPTWF simulate $SIM --store disk --store-path "$TMP/crash.store" --store-fail-after 100 \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: injected store crash exited $status, want 1" >&2
    exit 1
fi
# tear the last committed record at an arbitrary byte offset (the
# kill -9 window between write and fsync)
ssize=$(wc -c < "$TMP/crash.store")
truncate -s $((ssize - 5)) "$TMP/crash.store" 2>/dev/null \
    || dd if="$TMP/crash.store" of="$TMP/crash.store.cut" bs=1 count=$((ssize - 5)) 2>/dev/null
[ -f "$TMP/crash.store.cut" ] && mv "$TMP/crash.store.cut" "$TMP/crash.store"
# resume: the torn record is detected and dropped (stderr notice), its
# segment re-executes, and stdout is byte-identical to the uncrashed
# reference run
$CKPTWF simulate $SIM --store disk --store-path "$TMP/crash.store" \
    > "$TMP/store_res.txt" 2> "$TMP/store_res.err"
diff -u "$TMP/store_ref.txt" "$TMP/store_res.txt"
if ! grep -q "dropped a truncated trailing record" "$TMP/store_res.err"; then
    echo "FAIL: resumed store run did not report the torn record:" >&2
    cat "$TMP/store_res.err" >&2
    exit 1
fi
if ! grep -q "resumed from disk" "$TMP/store_res.err"; then
    echo "FAIL: resumed store run reported no resumed commits:" >&2
    cat "$TMP/store_res.err" >&2
    exit 1
fi
# stale records (same workflow, different fault physics) are rejected
# by fingerprint validation and re-committed, never silently resumed
$CKPTWF simulate $SIM --commit-fail-prob 0.05 --store disk --store-path "$TMP/crash.store" \
    > /dev/null 2> "$TMP/store_stale.err"
rejected=$(sed -n 's/.* \([0-9][0-9]*\) rejected by fingerprint$/\1/p' "$TMP/store_stale.err")
if [ -z "$rejected" ] || [ "$rejected" -eq 0 ]; then
    echo "FAIL: stale store records were not fingerprint-rejected:" >&2
    cat "$TMP/store_stale.err" >&2
    exit 1
fi
# a store written for a different workflow refuses to open: exit 3,
# one diagnostic line (never a silent replay of foreign checkpoints)
status=0
$CKPTWF simulate --workflow genome --tasks 50 --seed 7 --processors 5 --trials 80 \
    --store disk --store-path "$TMP/crash.store" \
    > /dev/null 2> "$TMP/store_foreign.err" || status=$?
if [ "$status" -ne 3 ]; then
    echo "FAIL: foreign-workflow store resume exited $status, want 3" >&2
    exit 1
fi
if [ "$(wc -l < "$TMP/store_foreign.err")" -ne 1 ]; then
    echo "FAIL: foreign-workflow store refusal printed more than one line:" >&2
    cat "$TMP/store_foreign.err" >&2
    exit 1
fi
# transcript of the whole fault sequence, uploaded as a CI artifact
# (STORE_FAULT_LOG) so a red run shows the store-layer notices
{
    echo "# disk-store fault-injection transcript"
    echo "== resume after injected crash + byte truncation =="
    cat "$TMP/store_res.err"
    echo "== stale records rejected by fingerprint =="
    cat "$TMP/store_stale.err"
    echo "== foreign-workflow store refused (exit 3) =="
    cat "$TMP/store_foreign.err"
} > "${STORE_FAULT_LOG:-$TMP/store_fault.log}"

echo "== serve daemon: batched NDJSON round-trips the one-shot CLI =="
# the daemon answers with the same %-formatted numbers the one-shot
# subcommands print, so scripted comparisons are string-exact
$CKPTWF evaluate --workflow genome --tasks 50 --seed 7 --processors 5 \
    > "$TMP/eval_once.txt" 2> /dev/null
em_once=$(sed -n 's/.*EM(CKPTSOME) = \([0-9.]*\) s.*/\1/p' "$TMP/eval_once.txt")
printf '%s\n' \
    '{"id": 1, "op": "evaluate", "workflow": "genome", "tasks": 50, "seed": 7, "processors": 5}' \
    '{"id": 2, "op": "degrade", "workflow": "genome", "tasks": 50, "seed": 7, "processors": 5, "strategy": "some", "pdeath": 0.2, "trials": 60}' \
    '{"id": 3, "op": "plan", "workflow": "genome", "tasks": 50, "seed": 7, "processors": 5, "strategy": "some"}' \
    '{"id": 4, "op": "stats"}' \
    > "$TMP/serve_reqs.ndjson"
$CKPTWF serve --once < "$TMP/serve_reqs.ndjson" > "$TMP/serve.ndjson" 2> /dev/null
# streaming mode (stdin without --once) answers each line as a batch of
# one; apart from timing, its answers must be the --once ones
$CKPTWF serve < "$TMP/serve_reqs.ndjson" > "$TMP/serve_stream.ndjson" 2> /dev/null
strip_elapsed() { sed 's/,"elapsed_ms":[0-9.e+-]*//' "$1"; }
strip_elapsed "$TMP/serve_stream.ndjson" > "$TMP/serve_stream.norm"
strip_elapsed "$TMP/serve.ndjson" | diff -u - "$TMP/serve_stream.norm"
em_serve=$(sed -n '1s/.*"em_some":"\([0-9.]*\)".*/\1/p' "$TMP/serve.ndjson")
if [ -z "$em_serve" ] || [ "$em_serve" != "$em_once" ]; then
    echo "FAIL: serve evaluate em_some '$em_serve' != one-shot '$em_once'" >&2
    exit 1
fi
# degrade through the daemon must agree with the CSV cell computed by
# the one-shot run at the same pdeath (same trials, same seed)
em_deg_serve=$(sed -n '2s/.*"em_repair":"\([0-9.]*\)".*/\1/p' "$TMP/serve.ndjson")
em_deg_once=$(awk -F, 'NR > 1 && $7 + 0 == 0.2 { print $8 }' "$TMP/deg1.csv")
if [ -z "$em_deg_serve" ] || [ "$em_deg_serve" != "$em_deg_once" ]; then
    echo "FAIL: serve degrade em_repair '$em_deg_serve' != one-shot '$em_deg_once'" >&2
    exit 1
fi
serve_hits=$(sed -n '2s/.*"replan_cache_hits":\([0-9]*\).*/\1/p' "$TMP/serve.ndjson")
if [ -z "$serve_hits" ] || [ "$serve_hits" -eq 0 ]; then
    echo "FAIL: serve degrade reported no replan-cache hits" >&2
    exit 1
fi
# plan request 3 reuses the plan computed for the degrade request
if ! sed -n '3p' "$TMP/serve.ndjson" | grep -q '"cache":"hit"'; then
    echo "FAIL: repeated plan request missed the service cache:" >&2
    sed -n '3p' "$TMP/serve.ndjson" >&2
    exit 1
fi
# a malformed request is a usage error: exit 2, one diagnostic line
status=0
printf '{"op": nope}\n' | $CKPTWF serve --once > /dev/null 2> "$TMP/serve.err" || status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: malformed serve request exited $status, want 2" >&2
    exit 1
fi
if [ "$(wc -l < "$TMP/serve.err")" -ne 1 ]; then
    echo "FAIL: malformed serve request printed more than one diagnostic line:" >&2
    cat "$TMP/serve.err" >&2
    exit 1
fi

echo "== serve daemon robustness: fault-injection harness =="
# concurrent clients, hung client, malformed flood, shedding, SIGTERM
# drain, stale-socket restart, TCP — scripts/serve_fault.sh asserts
# the well-formed answers stay identical to the one-shot CLI throughout
sh scripts/serve_fault.sh "${SERVE_FAULT_LOG:-$TMP/serve_fault.log}"

echo "== planning-throughput bench smoke (--plan-only, history recorded) =="
dune build bench/main.exe
CKPTWF_BENCH_REPS=2 CKPTWF_BENCH_DIR="$TMP/benchres" \
    _build/default/bench/main.exe --plan-only --json "$TMP/plan.json" --jobs 2 > /dev/null
test -s "$TMP/plan.json"
test -s "$TMP/benchres/plan-latest.json"

echo "== analytic and MC sweep evaluators agree, analytic is faster =="
# same pinned sweep priced by both evaluators: every expected-makespan
# column must agree within 1%, and the closed-form path must finish
# the sweep in less wall-clock time than the 10k-trial MC path
t0=$(date +%s%N)
$CKPTWF sweep $SWEEP --eval analytic > "$TMP/eval_analytic.csv"
t1=$(date +%s%N)
$CKPTWF sweep $SWEEP --eval mc > "$TMP/eval_mc.csv"
t2=$(date +%s%N)
awk -F, 'NR == 1 { getline other < mc; next }
    { getline other < mc; split(other, m, ",")
      for (c = 6; c <= 8; c++)
          if ((($c - m[c]) > 0 ? $c - m[c] : m[c] - $c) > 0.01 * m[c]) {
              printf "FAIL: row %d col %d: analytic %s vs mc %s\n", NR, c, $c, m[c]
              exit 1
          } }' mc="$TMP/eval_mc.csv" "$TMP/eval_analytic.csv"
analytic_ns=$((t1 - t0)); mc_ns=$((t2 - t1))
if [ "$analytic_ns" -ge "$mc_ns" ]; then
    echo "FAIL: analytic sweep (${analytic_ns}ns) not faster than mc (${mc_ns}ns)" >&2
    exit 1
fi
# auto resolves to the analytic path on sweeps (exponential model, no
# storage/contention knobs): byte-identical output
$CKPTWF sweep $SWEEP --eval auto > "$TMP/eval_auto.csv"
diff -u "$TMP/eval_analytic.csv" "$TMP/eval_auto.csv"

echo "== sweep-cell bench smoke (--sweep-only, history recorded) =="
CKPTWF_BENCH_REPS=2 CKPTWF_BENCH_DIR="$TMP/benchres" \
    _build/default/bench/main.exe --sweep-only --json "$TMP/sweep.json" > /dev/null
test -s "$TMP/sweep.json"
test -s "$TMP/benchres/sweep-latest.json"
grep -q '"analytic_within_ci": true' "$TMP/sweep.json"

echo "== all checks passed =="

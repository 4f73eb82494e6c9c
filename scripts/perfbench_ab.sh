#!/bin/sh
# Benchmark gate: run perfbench on a base revision and on this
# checkout, on the same machine, and fail when the checkout regressed.
#
#   usage: sh scripts/perfbench_ab.sh BASE
#
# BASE is any git revision (CI passes the merge base of a pull request,
# or the commit a push to main replaced). The script checks BASE out in
# a git worktree under _perfbench/, then runs `perfbench/run.sh
# --seconds 1` four times in ABBA order: base, head, head, base.
# perfbench/compare.exe judges the pairs (base1, head1) and (base2,
# head2), each metric against its bound in BENCHMARK.json.
#
# The gate fails (exit 1) only when
# - the same (workload, metric) row reads "regressed" in both pairs. One
#   pair is too noisy to gate on: on a 2-vCPU VM, identical commits
#   read regressed in 2 of 7 single comparisons; or
# - a head run is not correct: its last line must start
#   {"correct":true, so the seed-1 output digests are checked twice.
# It exits 2 when it cannot measure (bad usage, or a run that fails to
# build or start).
#
# It prints both comparison tables, and leaves them with the four
# result files and run logs in _perfbench/ab/.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
base=$(git rev-parse --verify "$1^{commit}")
out=_perfbench/ab
tree=_perfbench/ab-base

remove_tree() {
    git worktree remove --force "$tree" 2> /dev/null || rm -rf "$tree"
    git worktree prune
}
remove_tree
rm -rf "$out"
mkdir -p "$out"
trap remove_tree EXIT
trap 'exit 2' HUP INT TERM
git worktree add --quiet --detach "$tree" "$base"
start=$(date +%s)
echo "perfbench A/B: base $(git rev-parse --short "$base"), head $(git rev-parse --short HEAD)"

# bench SIDE DIR N: one perfbench run in checkout DIR, kept as SIDE<N>
bench() {
    echo "run $1$3 ..."
    sh "$2/perfbench/run.sh" --seconds 1 > "$out/$1$3.out" 2> "$out/$1$3.err" || {
        echo "perfbench on the $1 failed:" >&2
        tail -n 20 "$out/$1$3.err" >&2
        exit 2
    }
    cp "$2/_perfbench/results/bench-latest.json" "$out/$1$3.json"
    if [ "$1" = head ] && ! tail -n 1 "$out/$1$3.out" | grep -q '^{"correct":true'; then
        echo "FAIL: head run $3 is not correct:" >&2
        tail -n 1 "$out/$1$3.out" >&2
        exit 1
    fi
}
bench base "$tree" 1
bench head . 1
bench head . 2
bench base "$tree" 2

dune build --root . perfbench/compare.exe 1>&2
# pair N: the comparison table, and its regressed (workload, metric) rows
for n in 1 2; do
    status=0
    ./_build/default/perfbench/compare.exe "$out/base$n.json" "$out/head$n.json" \
        > "$out/pair$n.txt" || status=$?
    if [ "$status" -gt 1 ]; then
        echo "compare.exe failed on pair $n" >&2
        exit 2
    fi
    echo "== pair $n: base$n vs head$n =="
    cat "$out/pair$n.txt"
    awk '$NF == "regressed" { print $1, $2 }' "$out/pair$n.txt" | sort > "$out/regressed$n"
done
both=$(comm -12 "$out/regressed1" "$out/regressed2")
if [ -n "$both" ]; then
    echo "FAIL: regressed in both pairs:" >&2
    echo "$both" >&2
    exit 1
fi
echo "perfbench A/B: passed in $(($(date +%s) - start)) s (no row regressed in both pairs)"

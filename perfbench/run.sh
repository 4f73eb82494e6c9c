#!/bin/sh
# Build ckptwf and the benchmark harness from this checkout, then run
# the benchmark. Everything it writes stays in the checkout: dune's
# _build, and _perfbench/ for results, scratch files and TMPDIR.
#
#   sh perfbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
set -eu
cd "$(dirname "$0")/.."
mkdir -p _perfbench/tmp
TMPDIR="$PWD/_perfbench/tmp"
DUNE_CACHE=disabled
export TMPDIR DUNE_CACHE
dune build --root . bin/ckptwf.exe perfbench/harness.exe 1>&2
exec ./_build/default/perfbench/harness.exe "$@"

#!/bin/sh
# Build the benchmark from this checkout's sources, then run it.
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to _build/ (dune's
# shared cache is disabled, so nothing is written outside the checkout);
# the last line of stdout is the benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_NPROC=$(nproc) PERFBENCH_COMMIT=$commit \
  exec ./_build/default/perfbench/main.exe "$@"

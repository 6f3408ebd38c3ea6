#!/usr/bin/env bash
# Build the benchmark and the mbrd daemon from source, then run one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr, so the
# last line of stdout is the result line.
set -euo pipefail
# the dune cache would write outside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/mbrd.exe 1>&2
exec ./_build/default/perfbench/main.exe --mbrd ./_build/default/bin/mbrd.exe "$@"

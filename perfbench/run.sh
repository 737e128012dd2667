#!/usr/bin/env bash
# Build the benchmark program from source, then run it in place of this
# script. Run from the repository root:
#   bash perfbench/run.sh --workload flow-sym --seed 1 --seconds 40 --trace 0
# Build output goes to stderr; the program's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

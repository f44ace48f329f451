#!/usr/bin/env bash
# Build the benchmark runner and the bddmin CLI from source, then run one
# workload:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to standard error, so
# the runner's last line of standard output is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./benchmark/run.exe ./bin/bddmin_cli.exe 1>&2
exec ./_build/default/benchmark/run.exe --bddmin ./_build/default/bin/bddmin_cli.exe "$@"

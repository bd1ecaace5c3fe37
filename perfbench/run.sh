#!/bin/sh
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload abd-closed --seed 1 --seconds 15 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
dune build --root . --profile release ./perfbench/main.exe 1>&2 || exit 2
exec ./_build/default/perfbench/main.exe "$@"

#!/usr/bin/env bash
# Build the serving benchmark from this source checkout, then run it:
#
#   bash perfbench/run.sh --workload nlp-seq --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare BENCHMARK.json parent.jsonl change.jsonl
#
# Run from the checkout root.  Build output goes to stderr; the last line of
# stdout is the run's result as one JSON object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full sod2 source checkout" >&2
  exit 2
fi
if command -v dune >/dev/null 2>&1; then dune=(dune); else dune=(opam exec -- dune); fi
# The shared build cache lives outside the checkout; keep the build inside.
"${dune[@]}" build --root . --cache=disabled ./perfbench/sod2_bench.exe 1>&2
exec ./_build/default/perfbench/sod2_bench.exe "$@"

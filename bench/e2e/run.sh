#!/usr/bin/env bash
# Build the varbuf-serve binary and the benchmark from source, then run
# one benchmark workload.  Run from the repository root:
#
#   bash bench/e2e/run.sh --workload small_distinct --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/serve_main.ml ] || [ ! -f bench/e2e/main.ml ]; then
  echo "run.sh: run from the root of a varbuf source tree" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "run.sh: dune not found" >&2
  exit 2
fi

"${dune[@]}" build --root . ./bin/serve_main.exe ./bench/e2e/main.exe 1>&2

exec ./_build/default/bench/e2e/main.exe \
  --serve-exe ./_build/default/bin/serve_main.exe "$@"

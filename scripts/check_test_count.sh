#!/usr/bin/env bash
# Run the full suite with --force and fail if alcotest's reported test
# count drops below the committed floor.  A suite module falling out
# of test/test_main.ml (or a generator collapsing to zero cases)
# otherwise shrinks the suite silently while CI stays green; the count
# makes that a loud failure.  Raise EXPECTED when tests are added.
#
# Extra arguments are forwarded to dune, and the caller's environment
# (VARBUF_OBS, VARBUF_JOBS, ...) reaches the suite unchanged, so CI
# reuses this script for the observability pass.
set -ueo pipefail
cd "$(dirname "$0")/.."

EXPECTED=426

if ! out=$(dune runtest --force "$@" 2>&1); then
  tail -60 <<<"$out"
  echo "FAIL: dune runtest failed" >&2
  exit 1
fi
tail -5 <<<"$out"
count=$(grep -oE '[0-9]+ tests run' <<<"$out" | awk '{print $1}' | tail -1)
if [ -z "${count:-}" ]; then
  echo "FAIL: could not find 'N tests run' in dune runtest output" >&2
  exit 1
fi
if [ "$count" -lt "$EXPECTED" ]; then
  echo "FAIL: $count tests run, expected at least $EXPECTED" >&2
  exit 1
fi
echo "check_test_count: $count tests run (floor $EXPECTED)"

#!/usr/bin/env bash
# Compare two BENCH.json snapshots and print ns/op deltas per
# benchmark row (micro, sample, btypes, pareto).  Warn-only by
# design: smoke-bench numbers are noisy, so the script always exits 0
# when both files parse — CI runs it against the previous committed
# snapshot purely for the human reading the log.
#
#   scripts/bench_diff.sh OLD.json NEW.json
set -ueo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 OLD.json NEW.json" >&2
  exit 2
fi

python3 - "$1" "$2" <<'EOF'
import json, sys

def rows(path):
    with open(path) as f:
        d = json.load(f)
    out = {}
    for r in d.get("micro", []):
        out["micro/" + r["name"]] = r.get("ns_per_run")
    # Sample rows are keyed by K and relax; snapshots written before
    # the relax field existed timed relax 1 only.
    for r in d.get("sample", {}).get("rows", []):
        out["sample/K=%d/relax=%g" % (r["k"], r.get("relax", 1.0))] = r.get("ns_per_op")
    for r in d.get("btypes", {}).get("rows", []):
        out["btypes/%s/b=%d" % (r["net"], r["b"])] = r.get("ns_per_op")
    for r in d.get("pareto", {}).get("rows", []):
        out["pareto/%s/eps=%g" % (r["net"], r["eps"])] = r.get("ns_per_op")
    return out

old_path, new_path = sys.argv[1], sys.argv[2]
old, new = rows(old_path), rows(new_path)

print("%-40s %14s %14s %9s" % ("benchmark", "old ns/op", "new ns/op", "delta"))
for name in sorted(set(old) | set(new)):
    o, n = old.get(name), new.get(name)
    if o is None or n is None:
        status = "(old only)" if n is None else "(new only)"
        print("%-40s %14s %14s %9s" % (
            name,
            "-" if o is None else "%.0f" % o,
            "-" if n is None else "%.0f" % n,
            status))
    else:
        pct = 100.0 * (n - o) / o if o else float("inf")
        print("%-40s %14.0f %14.0f %+8.1f%%" % (name, o, n, pct))
EOF

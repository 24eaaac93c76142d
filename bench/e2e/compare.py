#!/usr/bin/env python3
"""Compare sets of served-request benchmark runs.

    python3 bench/e2e/compare.py BASE_DIR [CHANGE_DIR] [--pairs]

Each directory holds run JSON files written by bench/e2e/main.exe.
Runs marked oversubscribed are left out.

With one directory, prints per workload and end-to-end metric the median,
the quartiles and the spread (interquartile range over median) next to
the metric's bound, plus the medians of any per-layer metrics.

With two, gives a verdict per workload and metric using the bounds in
BENCHMARK.json: regressed or improved when the change's median is worse
or better than the base's by more than the bound, unchanged otherwise,
and unresolved when either side's spread is wider than the bound, unless
every change run beats every base run.  error_ratio regresses on any
increase.  --pairs adds the claim rule: pair runs by seed, and a gain
holds when the change wins at least 9/10 of the pairs and the medians
differ by more than the base's interquartile range.

Exits 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds(path):
    with open(path) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    # Not a BENCHMARK.json metric (it is 0 on a healthy run), but any
    # increase is a regression.
    metrics["error_ratio"] = {"name": "error_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}
    return metrics


def load_runs(directory):
    runs, skipped = {}, 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            run = json.load(f)
        if run.get("schema") != "varbuf-e2e/1":
            continue
        if run["oversubscribed"]:
            skipped += 1
            continue
        run["metrics"]["error_ratio"] = {"value": run["error_ratio"], "unit": "ratio"}
        runs.setdefault(run["workload"], []).append(run)
    if skipped:
        print(f"{directory}: left out {skipped} oversubscribed run(s)")
    return runs


def values(runs, metric, key="metrics"):
    return [r[key][metric]["value"] for r in runs if metric in r.get(key, {})]


def summary(xs):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = summary(xs)
    return (q3 - q1) / med if med else 0.0


def beats(x, y, better):
    return x > y if better == "higher" else x < y


def worse_share(base, change, better):
    """How much worse the change's median is, as a share of the base's."""
    if base == 0:
        return 0.0 if change == base else (1.0 if beats(base, change, better) else -1.0)
    d = (change - base) / base
    return -d if better == "higher" else d


def verdict(a, b, m):
    bound, better = m["bound"], m["better"]
    if m["name"] == "error_ratio":
        return "regressed" if max(b) > max(a) else "unchanged"
    worse = worse_share(statistics.median(a), statistics.median(b), better)
    if max(spread(a), spread(b)) > bound:
        if not all(beats(x, y, better) for x in b for y in a):
            return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def claim(a_runs, b_runs, m):
    """The claim rule over runs paired by seed."""
    def by_seed(runs):
        out = {}
        for r in runs:
            if m["name"] in r["metrics"]:
                out.setdefault(r["seed"], []).append(r["metrics"][m["name"]]["value"])
        return out

    sa, sb = by_seed(a_runs), by_seed(b_runs)
    pairs = [(x, y) for seed in sorted(set(sa) & set(sb)) for x, y in zip(sa[seed], sb[seed])]
    if not pairs:
        return "no pairs"
    wins = sum(1 for x, y in pairs if beats(y, x, m["better"]))
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    q1, med_a, q3 = summary(a)
    med_b = statistics.median(b)
    holds = (wins >= 0.9 * len(pairs) and beats(med_b, med_a, m["better"])
             and abs(med_b - med_a) > q3 - q1)
    return f"{wins}/{len(pairs)} wins, {'claim holds' if holds else 'no claim'}"


def fmt(x):
    return f"{x:.4g}"


def describe(base, bounds):
    for workload in sorted(base):
        runs = base[workload]
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<26} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>8} {'bound':>7}")
        for name, m in bounds.items():
            xs = values(runs, name)
            if not xs:
                continue
            q1, med, q3 = summary(xs)
            s = spread(xs)
            flag = "" if m["bound"] == 0 or s <= m["bound"] / 3 else "  wider than bound/3"
            print(f"  {name:<26} {fmt(q1):>10} {fmt(med):>10} {fmt(q3):>10} {s:>8.2%} {m['bound']:>7.0%}{flag}")
        layers = sorted({k for r in runs for k in r.get("layers", {})})
        for name in layers:
            xs = values(runs, name, key="layers")
            print(f"  layer {name:<32} median {fmt(statistics.median(xs))} ({len(xs)} traced runs)")


def compare(base, change, bounds, pairs):
    regressed = 0
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, []), change.get(workload, [])
        print(f"\n{workload} (base {len(a_runs)} runs, change {len(b_runs)} runs)")
        for name, m in bounds.items():
            a, b = values(a_runs, name), values(b_runs, name)
            if not a or not b:
                print(f"  {name:<16} missing on one side")
                continue
            v = verdict(a, b, m)
            regressed += v == "regressed"
            qa, qb = summary(a), summary(b)
            line = (f"  {name:<16} base {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]"
                    f"  change {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] {m['unit']}"
                    f"  worse by {worse_share(qa[1], qb[1], m['better']):+.1%}"
                    f" (bound {m['bound']:.0%})  {v}")
            if pairs:
                line += f"  pairs: {claim(a_runs, b_runs, m)}"
            print(line)
    return regressed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change", nargs="?")
    p.add_argument("--pairs", action="store_true", help="apply the claim rule to seed-paired runs")
    args = p.parse_args()
    bounds = load_bounds(os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    base = load_runs(args.base)
    if args.change is None:
        describe(base, bounds)
        return 0
    regressed = compare(base, load_runs(args.change), bounds, args.pairs)
    print(f"\n{regressed} regression(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds the JSON records perfbench writes next to its
build (one per run, e.g. .bench_build/perfbench/results). Runs are
grouped by workload and trace mode and paired in seed order. For every
workload x metric the tool prints each side's n, median and quartiles,
the change in median, and a verdict following the rule of the
choosing-metrics method (section 8):

  better      the change wins at least 9 of every 10 pairs (ties count
              for neither side) and the medians differ by more than
              the base's own quartile spread;
  worse       the same, the other way round;
  unresolved  anything else, including two sets of identical code.

For end-to-end metrics it also checks the benchmark's own gates from
BENCHMARK.json: each side's spread (interquartile distance over median)
must stay within the metric's bound, and the change's median may not
be worse than the base's by more than the bound. Exits 1 if any gate
fails, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """{(workload, trace): [record, ...]} sorted by seed."""
    runs = {}
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*.json")))
    for f in files:
        if f.endswith(".perfetto.json"):
            continue
        with open(f) as fh:
            rec = json.load(fh)
        if "workload" not in rec or "metrics" not in rec:
            continue
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, lower_is_better):
    pairs = list(zip(base, change))
    wins = losses = 0
    for b, c in pairs:
        if c == b:
            continue
        if (c < b) == lower_is_better:
            wins += 1
        else:
            losses += 1
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    separated = abs(c_med - b_med) > (b_q3 - b_q1)
    if pairs and separated and wins >= 0.9 * len(pairs):
        return "better", wins, len(pairs)
    if pairs and separated and losses >= 0.9 * len(pairs):
        return "worse", wins, len(pairs)
    return "unresolved", wins, len(pairs)


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                allow_abbrev=False)
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--bench", default=os.path.join(HERE, "..",
                                                   "BENCHMARK.json"))
    args = p.parse_args()

    with open(args.bench) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load_runs(args.base), load_runs(args.change)

    ok = True
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        a, b = base[key], change[key]
        print(f"== {workload} (trace {trace}): base n={len(a)}, "
              f"change n={len(b)}")
        print(f"  {'metric':32} {'base median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36} {'delta':>8}  verdict")
        for name in a[0]["metrics"]:
            spec = specs.get(name, {})
            lower = spec.get("better", "lower") == "lower"
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not vb or None in va or None in vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            v, wins, n = verdict(va, vb, lower)
            note = ""
            bound = spec.get("bound")
            if bound is not None:
                worse_by = delta if lower else -delta
                gates = [("base spread", spread(va)),
                         ("change spread", spread(vb)),
                         ("median worse by", worse_by)]
                failed = [f"{g} {x:+.3f}" for g, x in gates if x > bound]
                note = (f"  GATE FAIL (bound {bound}): " + ", ".join(failed)
                        if failed else f"  within bound {bound}")
                ok = ok and not failed
            print(f"  {name:32} {qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"{'':>2} {qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"{'':>2} {delta:>+7.2%}  {v} ({wins}/{n} pairs won)"
                  f"{note}")
        failed_runs = [r for r in a + b if not r["correct"]]
        if failed_runs:
            ok = False
            print(f"  {len(failed_runs)} run(s) reported correct=false")
    if not set(base) & set(change):
        print("no workload appears in both result sets", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarise and compare e2ebench result records.

    python3 e2ebench/compare.py DIR            spread of each metric in DIR
    python3 e2ebench/compare.py OLD_DIR NEW_DIR  medians of NEW against OLD

A DIR holds result records as run.py writes them
(.bench_build/work/results/<workload>-seed<n>-trace<t>.json). Records are
grouped by workload and trace mode. For each metric the summary gives the
median over seeds, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, the same figures the benchmark's bounds are checked
against.

Comparing two directories pairs records by (workload, seed, trace). A pair
whose input digests differ is never compared: the generator changed, so the
inputs are not the same workload; the script names the pair and exits 1.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path) as f:
            r = json.load(f)
        records[(r["workload"], r["seed"], r["trace"])] = r
    return records


def groups(records):
    out = {}
    for (workload, _seed, trace), r in records.items():
        out.setdefault((workload, trace), []).append(r)
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def bounds():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec["end_to_end"]}


def summarise(directory):
    known = bounds()
    for (workload, trace), rs in sorted(groups(load(directory)).items()):
        correct = all(r["correct"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{workload} trace={trace}: {len(rs)} runs, correct={correct}, "
              f"failed {failed}/{attempted}")
        for name in sorted(rs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, s = spread(values)
            bound = known.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag = "  SPREAD ABOVE BOUND"
            print(f"  {name:32s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {s:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)


def compare(old_dir, new_dir):
    old, new = load(old_dir), load(new_dir)
    mismatched = [k for k in old.keys() & new.keys()
                  if old[k]["input_digest"] != new[k]["input_digest"]]
    if mismatched:
        for k in sorted(mismatched):
            print(f"input digest differs for {k}: not comparable")
        sys.exit(1)
    known = bounds()
    old_g, new_g = groups(old), groups(new)
    for key in sorted(old_g.keys() & new_g.keys()):
        print(f"{key[0]} trace={key[1]}")
        for name in sorted(old_g[key][0]["metrics"]):
            a = statistics.median(r["metrics"][name]["value"] for r in old_g[key])
            b = statistics.median(r["metrics"][name]["value"] for r in new_g[key])
            change = (b - a) / a if a else 0.0
            verdict = ""
            m = known.get(name)
            if m is not None:
                worse = change < 0 if m["better"] == "higher" else change > 0
                verdict = "  REGRESSION" if worse and abs(change) > m["bound"] else ""
            print(f"  {name:32s} {a:14.6g} -> {b:14.6g}  {change:+8.2%}{verdict}")


def main():
    if len(sys.argv) == 2:
        summarise(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()

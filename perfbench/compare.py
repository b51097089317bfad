#!/usr/bin/env python3
"""Compare two sets of benchmark run records.

    python3 perfbench/run.py --workload paper8 --seed 1 --record base-1.json
    ...
    python3 perfbench/compare.py --base base-*.json --new new-*.json

A record is the JSON line `synpa-perfbench --record PATH` writes: the run's
result plus `nproc`, the worker count, the git revision, the default
engine and the model coefficients. For each (workload, trace, metric) this
prints each side's median with its quartiles and the ratio of the medians.
Records taken with a different `nproc` or worker count are refused (exit
2): a number measured on another core count is not comparable.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    machines = {(r["nproc"], r["workers"]) for r in base + new}
    if len(machines) != 1:
        print(f"refusing to compare records from different machines (nproc, workers): "
              f"{sorted(machines)}", file=sys.stderr)
        return 2
    series = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            for name, m in r["result"]["metrics"].items():
                key = (r["workload"], r["trace"], name, m["unit"])
                series.setdefault(key, {"base": [], "new": []})[side].append(m["value"])
    print(f"{'workload':<11} {'t':>1} {'metric':<34} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'new/base':>9}")
    for (workload, trace, name, unit), sides in sorted(series.items()):
        cols = []
        for side in ("base", "new"):
            q1, med, q3 = quartiles(sides[side]) if sides[side] else (None, None, None)
            cols.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}]" if med is not None else "-")
        b, n = sides["base"], sides["new"]
        ratio = (f"{statistics.median(n) / statistics.median(b):.4f}"
                 if b and n and statistics.median(b) != 0 else "-")
        print(f"{workload:<11} {trace:>1} {name + ' (' + unit + ')':<34} {cols[0]:>32} "
              f"{cols[1]:>32} {ratio:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

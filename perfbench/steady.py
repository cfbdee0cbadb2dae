"""Spread of the end-to-end metrics over many untraced runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload NAME --seed $s --seconds 40 --trace 0
    done
    python3 perfbench/steady.py

Reads the run records in .perfbench/results/ and prints, per workload and
metric, the median over runs and the interquartile distance as a share of
it, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import reduce  # noqa: E402


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(".perfbench", "results", "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec["metrics"]:
            runs.setdefault(rec["workload"], []).append(rec["metrics"])
    for workload, metrics in sorted(runs.items()):
        print("%s: %d runs" % (workload, len(metrics)))
        for name, bound in bounds.items():
            xs = [m[name]["value"] for m in metrics]
            if len(xs) < 2:
                continue
            s = reduce.spread(xs)
            print("  %-12s median %10.4f  spread %.4f  bound %.2f  %s" % (
                name, reduce.median(xs), s, bound,
                "steady" if s < bound / 3 else "within bound" if s <= bound else "TOO WIDE"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

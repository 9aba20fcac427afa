#!/usr/bin/env python3
"""Compare two sets of benchmark records metric by metric.

    python3 perfbench/compare.py --base .bench_build/perfbench/a*.json \
                                 --new  .bench_build/perfbench/b*.json

Each file is a record that run.py wrote.  All files must be of one workload
and one trace mode, and all must have run on the same exact-rational
backend: a gmpy2 run and a fractions run measure different programs, so
the comparison is refused (exit 2).  Per metric, prints each side's median
and quartiles, the ratio of medians, and for end-to-end metrics whether the
new median is worse than the base median by more than BENCHMARK.json's
bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    everything = base + new

    for key, what in ((lambda r: r["env"]["backend"], "backend"),
                      (lambda r: r["workload"], "workload"),
                      (lambda r: r["trace"], "trace mode")):
        seen = sorted({str(key(r)) for r in everything})
        if len(seen) > 1:
            print(f"refusing to compare: records differ in {what}: {', '.join(seen)}",
                  file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {base[0]['workload']}, backend {base[0]['env']['backend']}, "
          f"{len(base)} base and {len(new)} new records")
    print(f"{'metric':40s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'new/base':>9s}")
    worse_any = False
    for name in base[0]["metrics"]:
        b = quartiles([r["metrics"][name]["value"] for r in base])
        n = quartiles([r["metrics"][name]["value"] for r in new])
        ratio = n[1] / b[1] if b[1] else float("nan")
        flag = ""
        if name in bounds:
            limit = bounds[name]["bound"]
            worse = ratio > 1 + limit if better[name] == "lower" else ratio < 1 - limit
            flag = "  WORSE THAN BOUND" if worse else ""
            worse_any |= worse
        print(f"{name:40s} {'%.4g/%.4g/%.4g' % b:>32s} {'%.4g/%.4g/%.4g' % n:>32s} "
              f"{ratio:9.4f}{flag}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())

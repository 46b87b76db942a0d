#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (workload, metric).

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records perfbench/run.py saves (any depth, e.g. a
copy of .bench_results taken at each commit). End-to-end metrics come from
--trace 0 records and per-layer metrics from --trace 1 records; bounds and
the direction of "better" come from BENCHMARK.json.

Verdicts, per workload and never combined into one score:
  better      every new run beats every base run, or the medians differ in
              the good direction by more than the measured spread
  worse       the new median is worse than the base median by more than the
              metric's bound (per-layer metrics: by more than the spread)
  unresolved  the spread of either side is wider than the metric's bound,
              so "no worse than the bound" cannot be shown
  unchanged   none of the above
The spread of one side is the distance between its first and third
quartiles as a share of its median (statistics.quantiles, n=4). The exit
code is 1 when any end-to-end pair is worse, else 0. The gain column is the
change of the median in the metric's good direction (positive = better).
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): {metric: [values]}} from correct records."""
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(dirpath, name)) as f:
                    rec = json.load(f)
            except (OSError, ValueError):
                continue
            if not isinstance(rec, dict) or not rec.get("correct"):
                continue
            if "workload" not in rec or "metrics" not in rec:
                continue
            key = (rec["workload"], int(rec.get("trace", 0)))
            for metric, m in rec["metrics"].items():
                if isinstance(m.get("value"), (int, float)):
                    out.setdefault(key, {}).setdefault(metric, []).append(
                        float(m["value"]))
    return out


def spread(values):
    if len(values) < 2:
        return float("inf")
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(base, new, higher_is_better, bound):
    """Return (verdict, gain, spread); gain > 0 means new is better."""
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == mn:
        gain = 0.0
    elif mb == 0:
        gain = float("inf") if (mn > mb) == higher_is_better else float("-inf")
    else:
        gain = (mn - mb) / abs(mb) * (1 if higher_is_better else -1)
    s = max(spread(base), spread(new))

    def better(a, b):
        return a > b if higher_is_better else a < b

    if all(better(n, b) for n in new for b in base):
        return "better", gain, s
    limit = bound if bound is not None else s
    if all(better(b, n) for n in new for b in base) and -gain > limit:
        return "worse", gain, s
    if bound is not None and s > bound:
        return "unresolved", gain, s
    if -gain > limit:
        return "worse", gain, s
    if gain > s:
        return "better", gain, s
    return "unchanged", gain, s


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)
    tiers = [(0, m) for m in bench["end_to_end"]] + [(1, m) for m in bench["per_layer"]]

    header = ("workload", "metric", "base", "new", "gain", "spread", "bound",
              "verdict")
    rows = []
    worse_e2e = False
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, m in tiers:
            a = base.get((wl, trace), {}).get(m["name"])
            b = new.get((wl, trace), {}).get(m["name"])
            if not a or not b:
                continue
            bound = m.get("bound")
            v, gain, s = verdict(a, b, m["better"] == "higher", bound)
            worse_e2e |= v == "worse" and trace == 0
            rows.append((wl, m["name"], "%.6g" % statistics.median(a),
                         "%.6g" % statistics.median(b), "%+.1f%%" % (100 * gain),
                         "%.1f%%" % (100 * s),
                         "-" if bound is None else "%.0f%%" % (100 * bound), v))
    if not rows:
        print("no comparable results found", file=sys.stderr)
        return 2
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return 1 if worse_e2e else 0


if __name__ == "__main__":
    sys.exit(main())

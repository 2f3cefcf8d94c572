"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (searched recursively;
traced runs are skipped).  For every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles and a verdict:

  better        over at least ten runs paired by seed, the change wins at
                least nine tenths of the pairs (ties count for neither) and
                the medians differ by more than the parent's interquartile
                range; or the spread is too wide to judge but every change
                run beats every parent run
  unresolved    either side's interquartile range, as a share of its
                median, is wider than the metric's bound
  worse         the change's median is worse than the parent's by more than
                the bound
  within bound  otherwise
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import load_benchmark

MIN_PAIRS = 10


def load_runs(folder: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(folder, "**", "*.json"), recursive=True)):
        if path.endswith(".spans.json"):
            continue
        with open(path) as fh:
            result = json.load(fh)
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> str:
    """parent and change map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    pq1, pm, pq3 = quartiles(list(parent.values()))
    cq1, cm, cq3 = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    gain = sign * (pm - cm)                       # > 0 when the change is better
    all_better = all(sign * (c - p) < 0 for p in parent.values() for c in change.values())
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > pq3 - pq1:
        return "better"
    if (pq3 - pq1) / abs(pm) > bound or (cq3 - cq1) / abs(cm) > bound:
        return "better" if all_better else "unresolved"
    if -gain / abs(pm) > bound:
        return "worse"
    return "within bound"


def compare(parent_dir: str, change_dir: str) -> list[dict]:
    bench = load_benchmark()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        a, b = parent.get(workload, []), change.get(workload, [])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pa = {r["seed"]: r[name] for r in a}
            cb = {r["seed"]: r[name] for r in b}
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "parent": quartiles(list(pa.values())) if pa else None,
                   "change": quartiles(list(cb.values())) if cb else None,
                   "runs": (len(pa), len(cb)),
                   "failed": (sum(r["failed"] for r in a), sum(r["attempted"] for r in a),
                              sum(r["failed"] for r in b), sum(r["attempted"] for r in b))}
            row["verdict"] = (verdict(pa, cb, metric["better"], metric["bound"])
                              if pa and cb else "missing")
            rows.append(row)
    return rows


def _fmt(q) -> str:
    return "-" if q is None else f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':16s} {'metric':12s} {'unit':5s} {'parent median [q1, q3]':30s} "
          f"{'change median [q1, q3]':30s} {'runs':7s} {'change':>8s}  verdict")
    for row in rows:
        p, c = row["parent"], row["change"]
        delta = f"{(c[1] - p[1]) / p[1]:+.1%}" if p and c else "-"
        print(f"{row['workload']:16s} {row['metric']:12s} {row['unit']:5s} {_fmt(p):30s} "
              f"{_fmt(c):30s} {row['runs'][0]:>3d}/{row['runs'][1]:<3d} {delta:>8s}  "
              f"{row['verdict']}")
    seen = set()
    for row in rows:
        if row["workload"] not in seen:
            seen.add(row["workload"])
            fa, na, fb, nb = row["failed"]
            print(f"{row['workload']:16s} failed_frac  parent {fa}/{na}  change {fb}/{nb}")
    return 0

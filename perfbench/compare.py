"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds untraced ``BENCH_<workload>_seed<N>.json`` files,
for instance from ``for s in 1 2 ... 10: run.py --seed $s --out DIR``.
Runs are paired by workload and seed. For every end-to-end metric in
BENCHMARK.json and every workload the tool reports one of:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base set's
  interquartile range;
* ``better-every-run``: the spread is too wide to resolve, but every
  change run reads better than every base run;
* ``unresolved``: either set's spread (interquartile range over median)
  exceeds the metric's bound, so no verdict is possible;
* ``regressed``: the change's median is worse than the base median by
  more than the metric's bound;
* ``within-bound``: none of the above.

Comparing two sets made from the same code (an A/A check) must give
``within-bound`` everywhere. Exit status is 1 when any pairing is
``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from run import DEFAULT_SEED, HOLDOUT_SEED  # noqa: E402

_NAME = re.compile(r"BENCH_(?P<workload>\w+?)_seed(?P<seed>-?\d+)\.json$")


def load(directory: str) -> dict:
    """workload -> seed -> metric name -> value, untraced runs only."""
    out: dict = {}
    for path in glob.glob(os.path.join(directory, "BENCH_*_seed*.json")):
        m = _NAME.search(os.path.basename(path))
        if not m:
            continue  # a traced run
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out.setdefault(m["workload"], {})[int(m["seed"])] = {
            k: v["value"] for k, v in doc["metrics"].items()}
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """(interquartile range, that range as a share of the median)."""
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q3 - q1, (q3 - q1) / med if med else float("inf")


def judge(base: list[float], change: list[float], pairs: list[tuple[float, float]],
          better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(base), statistics.median(change)
    iqr_a, spread_a = spread(base)
    _, spread_b = spread(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    worse_by = sign * (med_a - med_b) / med_a if med_a else 0.0
    if (pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > iqr_a):
        status = "improved"
    elif spread_a > bound or spread_b > bound:
        every = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
        status = "better-every-run" if every else "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "within-bound"
    return {"base_median": med_a, "change_median": med_b, "worse_by": worse_by,
            "base_spread": spread_a, "change_spread": spread_b,
            "wins": wins, "pairs": len(pairs), "status": status}


def compare(base_dir: str, change_dir: str, benchmark: dict) -> list[dict]:
    base, change = load(base_dir), load(change_dir)
    rows = []
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, {}), change.get(workload, {})
        if not a_runs or not b_runs:
            rows.append({"workload": workload, "metric": "*", "status": "missing"})
            continue
        seeds = sorted(set(a_runs) & set(b_runs))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in a_runs.values()]
            b = [r[name] for r in b_runs.values()]
            pairs = [(a_runs[s][name], b_runs[s][name]) for s in seeds]
            row = {"workload": workload, "metric": name, "bound": metric["bound"],
                   **judge(a, b, pairs, metric["better"], metric["bound"])}
            if HOLDOUT_SEED in seeds:
                ha, hb = a_runs[HOLDOUT_SEED][name], b_runs[HOLDOUT_SEED][name]
                row["holdout_change"] = (hb - ha) / ha if ha else 0.0
            rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(BENCH_DIR),
                                                         "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    rows = compare(args.base, args.change, benchmark)
    print(f"# default seed {DEFAULT_SEED}, holdout seed {HOLDOUT_SEED}")
    print(f"{'workload':15} {'metric':12} {'base':>11} {'change':>11} {'worse_by':>9} "
          f"{'spread_a':>8} {'spread_b':>8} {'bound':>6} {'wins':>6}  status")
    bad = False
    for r in rows:
        if r["status"] == "missing":
            print(f"{r['workload']:15} missing from one set")
            bad = True
            continue
        print(f"{r['workload']:15} {r['metric']:12} {r['base_median']:11.5g} "
              f"{r['change_median']:11.5g} {r['worse_by']:+9.3f} {r['base_spread']:8.3f} "
              f"{r['change_spread']:8.3f} {r['bound']:6.2f} {r['wins']:>3}/{r['pairs']:<2}  "
              f"{r['status']}"
              + (f" (holdout {r['holdout_change']:+.3f})" if "holdout_change" in r else ""))
        bad |= r["status"] in ("regressed", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

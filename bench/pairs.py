#!/usr/bin/env python3
"""Paired statistics of perfbench runs of a parent and a change checkout.

Reads the untraced records `.bench_build/perfbench/<workload>-seed<s>-
trace0.json` that `perfbench/run.py --trace 0` leaves in each checkout,
pairs them by workload and seed, and prints per workload and end-to-end
metric of `BENCHMARK.json`:

- the median of each side's runs;
- the parent's interquartile range as a share of its median;
- the median over the pairs of the ratio change/parent;
- the number of pairs where the change read lower.

A paired ratio cancels the slow drift of a shared machine, which two
independent medians do not, provided the two sides were run alternately
(parent first on odd seeds, change first on even ones).  Each metric gets
a reading (every end-to-end metric there is lower-is-better): "gain"
when the change reads lower in at least nine pairs of ten and its median
is below the parent's by more than the parent's interquartile range;
"worse than bound" when its median is above the parent's by more than
the metric's bound; "unresolved" when the parent's interquartile range alone
exceeds the bound; "within bound" otherwise.

    python3 bench/pairs.py PARENT_ROOT CHANGE_ROOT [--out pairs.json]

`--out` writes the summary as JSON, the shape of a `BENCH_*.json`'s
`end_to_end` entry.  The script reads the records and writes nothing else.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GAIN_SHARE = 0.9  # share of pairs the change must win for a gain


def records(root: Path) -> dict:
    """(workload, seed) -> the untraced perfbench record in a checkout."""
    out = {}
    for path in sorted((root / ".bench_build" / "perfbench").glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(xs: list) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def reading(p: dict, c: dict, wins: int, pairs: int, bound: float) -> str:
    """The verdict on one metric from each side's quartiles, lower being better."""
    iqr = p["q3"] - p["q1"]
    if wins >= GAIN_SHARE * pairs and p["median"] - c["median"] > iqr:
        return "gain"
    if c["median"] > (1.0 + bound) * p["median"]:
        return "worse than bound"
    if iqr > bound * p["median"]:
        return "unresolved (parent IQR above bound)"
    return "within bound"


def metric_summary(pairs: list, name: str, spec: dict) -> dict:
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    wins = sum(c < p for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    return {
        "unit": spec["unit"],
        "parent": p,
        "change": c,
        "parent_iqr_over_median": round((p["q3"] - p["q1"]) / p["median"], 3),
        "median_pair_ratio": round(statistics.median(
            ch / pa for pa, ch in zip(parent, change)), 3),
        "change_lower_in_pairs": wins,
        "pairs": len(pairs),
        "bound": spec["bound"],
        "reading": reading(p, c, wins, len(pairs), spec["bound"]),
    }


def oracle_shift(pairs: list):
    """Largest absolute change of the oracle error over the pairs, or None
    when the workload has no oracle."""
    shifts = [abs(c["oracle_err"] - p["oracle_err"]) for p, c in pairs
              if p["oracle_err"] is not None and c["oracle_err"] is not None]
    return max(shifts) if shifts else None


def summarize(parent: dict, change: dict, specs: list) -> dict:
    out = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        out[workload] = {
            "seeds": seeds,
            "pairs": len(pairs),
            "correct": {side: all(pair[i]["correct"] for pair in pairs)
                        for i, side in enumerate(("parent", "change"))},
            "failed_ops": {side: sum(pair[i]["failed"] for pair in pairs)
                           for i, side in enumerate(("parent", "change"))},
            "oracle_err_max_abs_change": oracle_shift(pairs),
            "metrics": {spec["name"]: metric_summary(pairs, spec["name"], spec)
                        for spec in specs},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the change checkout")
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = ap.parse_args(argv)
    specs = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(records(args.parent), records(args.change), specs)
    if not summary:
        print("pairs: no workload has records on both sides", file=sys.stderr)
        return 1
    for workload, s in summary.items():
        print(f"{workload}: {s['pairs']} pairs (seeds {s['seeds']}), correct {s['correct']}, "
              f"failed ops {s['failed_ops']}, "
              f"oracle error moved by at most {s['oracle_err_max_abs_change']}")
        for name, m in s["metrics"].items():
            print(f"  {name:12s} parent {m['parent']['median']:<9g} change "
                  f"{m['change']['median']:<9g} parent IQR/median "
                  f"{m['parent_iqr_over_median']:<6g} pair ratio {m['median_pair_ratio']:<6g} "
                  f"lower in {m['change_lower_in_pairs']}/{m['pairs']}: {m['reading']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

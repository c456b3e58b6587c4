#!/usr/bin/env python3
"""Compare two hazybench result files metric by metric.

    python3 benchmark/compare.py BASE.json CHANGE.json

BASE.json and CHANGE.json are written by `benchmark/run.py --out` on the
parent and on the change, with the same flags. For every workload and every
end-to-end metric in BENCHMARK.json the runs are paired in order (run i of
the base with run i of the change) and judged by the rule the benchmark
gates on:

  improved      at least 10 pairs were run, the change wins at least 9 in 10
                of them (ties count for neither side), its median is better,
                and the medians differ by more than the base's own spread
                (distance between its quartiles); never when the change
                failed more operations
  regressed     the change's median is worse than the base's by more than
                the metric's bound (a share of the base median)
  unresolved    either side's spread, as a share of its median, is wider
                than the bound, and not every change run beats every base
                run
  within bound  otherwise

Exit status: 0 when nothing regressed, 1 when a metric regressed, 2 when the
two sides computed different answers (an answer_digest differs).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS_FOR_GAIN = 10


def summarize(values):
    """Median, quartiles and sample count, as statistics.quantiles gives
    the quartiles; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(summary):
    """Distance between the quartiles as a share of the median."""
    if summary["median"] == 0:
        return 0.0 if summary["q3"] == summary["q1"] else float("inf")
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def load_bounds(spec):
    """End-to-end metric name -> {"unit", "better", "bound"} from a parsed
    BENCHMARK.json; rejects entries the rule cannot apply."""
    bounds = {}
    for metric in spec["end_to_end"]:
        better, bound = metric["better"], metric["bound"]
        if better not in ("lower", "higher"):
            raise ValueError("%s: better must be lower or higher" % metric["name"])
        if not 0 < bound <= 0.25:
            raise ValueError("%s: bound must be in (0, 0.25]" % metric["name"])
        bounds[metric["name"]] = {"unit": metric["unit"], "better": better, "bound": bound}
    return bounds


def verdict(base, change, better, bound, more_failures=False):
    """Applies the paired rule to two equally long lists of run values;
    returns (verdict, share of pairs the change won)."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same number of runs on both sides")
    b, c = summarize(base), summarize(change)

    def beats(x, y):
        return x < y if better == "lower" else x > y

    wins = sum(1 for x, y in zip(base, change) if beats(y, x))
    win_share = wins / len(base)
    worse = c["median"] - b["median"] if better == "lower" else b["median"] - c["median"]
    if (len(base) >= MIN_PAIRS_FOR_GAIN and win_share >= 0.9 and worse < 0
            and -worse > b["q3"] - b["q1"] and not more_failures):
        return "improved", win_share
    if worse > bound * abs(b["median"]):
        return "regressed", win_share
    every_run_better = all(beats(y, x) for x in base for y in change)
    if max(spread(b), spread(c)) > bound and not every_run_better:
        return "unresolved", win_share
    return "within bound", win_share


def digest_mismatches(base_doc, change_doc):
    """Workloads run on both sides whose answer digests differ."""
    out = []
    for name, base in base_doc["workloads"].items():
        change = change_doc["workloads"].get(name)
        if change is not None and set(base["answer_digest"]) != set(change["answer_digest"]):
            out.append(name)
    return out


def compare(base_doc, change_doc, bounds):
    """Rows of (workload, metric, base summary, change summary, verdict,
    win share) for every workload on both sides."""
    rows = []
    for name, base in base_doc["workloads"].items():
        change = change_doc["workloads"].get(name)
        if change is None:
            continue
        n = min(len(base["runs"]), len(change["runs"]))
        more_failures = (sum(r["failed"] for r in change["runs"][:n])
                         > sum(r["failed"] for r in base["runs"][:n]))
        for metric, rule in bounds.items():
            b = [r["e2e"][metric] for r in base["runs"][:n]]
            c = [r["e2e"][metric] for r in change["runs"][:n]]
            v, wins = verdict(b, c, rule["better"], rule["bound"], more_failures)
            rows.append((name, metric, summarize(b), summarize(c), v, wins))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as f:
        bounds = load_bounds(json.load(f))
    with open(args.base) as f:
        base_doc = json.load(f)
    with open(args.change) as f:
        change_doc = json.load(f)

    print("%-13s %-19s %28s %28s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins",
        "verdict"))
    rows = compare(base_doc, change_doc, bounds)
    for name, metric, b, c, v, wins in rows:
        print("%-13s %-19s %28s %28s %5.0f%%  %s (bound %g%%, n=%d)" % (
            name, metric, "%.5g [%.5g, %.5g]" % (b["median"], b["q1"], b["q3"]),
            "%.5g [%.5g, %.5g]" % (c["median"], c["q1"], c["q3"]), 100 * wins, v,
            100 * bounds[metric]["bound"], b["n"]))
    mismatched = digest_mismatches(base_doc, change_doc)
    for name in mismatched:
        print("ANSWER MISMATCH on %s: %s vs %s" % (
            name, base_doc["workloads"][name]["answer_digest"],
            change_doc["workloads"][name]["answer_digest"]))
    if mismatched:
        return 2
    return 1 if any(row[4] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

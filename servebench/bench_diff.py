#!/usr/bin/env python3
"""Compare two benchmark result sets under the bounds in BENCHMARK.json.

    python3 servebench/bench_diff.py base.jsonl change.jsonl

Both files are run_set.py output. Runs pair up by (workload, seed, trace
mode). For every workload x end-to-end metric the verdict is:

  regressed   the change's median is worse than the baseline's by more
              than the metric's bound;
  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the baseline's
              interquartile range;
  unresolved  fewer than 10 pairs, or the baseline's own spread
              (interquartile range / median) is wider than the bound;
  unchanged   otherwise.

Per-layer metrics (traced runs) have no bound and are listed with their
median change only. Exits 1 when any verdict is "regressed".
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """{(workload, seed, trace): metrics} of the runs with a result."""
    runs = {}
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            if record.get("result"):
                key = (record["workload"], record["seed"], record["trace"])
                runs[key] = {
                    name: metric["value"]
                    for name, metric in record["result"]["metrics"].items()}
    return runs


def verdict(base, change, bound, higher_is_better):
    """Verdict plus the signed median change (positive = better)."""
    sign = 1.0 if higher_is_better else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    gain = sign * (change_median - base_median) / base_median
    if gain < -bound:
        return "regressed", gain
    if len(base) < MIN_PAIRS:
        return "unresolved", gain
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, _, q3 = statistics.quantiles(base, n=4)
    if (gain > 0 and wins >= WIN_SHARE * len(base) and
            abs(change_median - base_median) > q3 - q1):
        return "improved", gain
    if (q3 - q1) / base_median > bound:
        return "unresolved", gain
    return "unchanged", gain


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark-json",
                        default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark_json) as spec_file:
        spec = json.load(spec_file)
    base, change = load(args.base), load(args.change)
    pairs = sorted(set(base) & set(change))
    workloads = [w["name"] for w in spec["workloads"]]

    regressed = False
    print("%-24s %-32s %5s %12s %12s %8s  %s" %
          ("workload", "metric", "pairs", "base", "change", "gain", "verdict"))
    for workload in workloads:
        for trace in (0, 1):
            keys = [k for k in pairs if k[0] == workload and k[2] == trace]
            if not keys:
                continue
            names = set.intersection(*(set(base[k]) & set(change[k])
                                       for k in keys))
            for metric in spec["end_to_end"] + spec["per_layer"]:
                name = metric["name"]
                if name not in names:
                    continue
                b = [base[k][name] for k in keys]
                c = [change[k][name] for k in keys]
                higher = metric["better"] == "higher"
                if "bound" in metric:
                    status, gain = verdict(b, c, metric["bound"], higher)
                else:
                    b_median = statistics.median(b)
                    gain = ((1 if higher else -1) *
                            (statistics.median(c) - b_median) / b_median
                            if b_median else 0.0)
                    status = "(per-layer)"
                regressed |= status == "regressed"
                print("%-24s %-32s %5d %12.6g %12.6g %+7.2f%%  %s" %
                      (workload, name, len(keys), statistics.median(b),
                       statistics.median(c), 100 * gain, status))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

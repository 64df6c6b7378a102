#!/usr/bin/env python3
"""Smoke test of the serve benchmark (ctest bench_smoke, label bench).

Runs every workload of BENCHMARK.json at a tiny fixed size, then the
per-layer replay once, and checks that each exits 0, prints a correct result
whose metric names are exactly BENCHMARK.json's, and that the trace file is
valid Chrome-trace JSON.

    python3 servebench/smoke.py --bin-dir BUILD --benchmark-json BENCHMARK.json \\
        --work-dir DIR
"""
import argparse
import json
import os
import subprocess
import sys


def run(command):
    """Run one benchmark program; return its parsed result line or raise."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=60)
    if done.returncode != 0:
        raise AssertionError("%s exited %d" % (command[0], done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("unexpected result keys: %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError("incorrect result: %s" % result)
    return result


def check_names(result, expected, what):
    names = list(result["metrics"])
    if sorted(names) != sorted(expected):
        raise AssertionError("%s metric names differ: got %s, want %s" %
                             (what, names, expected))
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            raise AssertionError("malformed metric %s: %s" % (name, metric))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bin-dir", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as spec_file:
        spec = json.load(spec_file)
    common = ["--seed", "1", "--seconds", "0.3", "--tiny",
              "--work-dir", args.work_dir]

    end_to_end = [m["name"] for m in spec["end_to_end"]]
    for workload in spec["workloads"]:
        result = run([os.path.join(args.bin_dir, "servebench"),
                      "--workload", workload["name"]] + common)
        check_names(result, end_to_end, workload["name"])

    trace_path = os.path.join(args.work_dir, "smoke-trace.json")
    result = run([os.path.join(args.bin_dir, "servebench_layers"),
                  "--workload", spec["workloads"][0]["name"],
                  "--trace-out", trace_path] + common)
    check_names(result, [m["name"] for m in spec["per_layer"]], "per-layer")
    with open(trace_path) as trace_file:
        events = json.load(trace_file)["traceEvents"]
    for event in events:
        if not {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event):
            raise AssertionError("malformed trace event: %s" % event)
    if not events:
        raise AssertionError("empty trace")
    print("bench_smoke: %d workloads + trace replay ok (%d spans)" %
          (len(spec["workloads"]), len(events)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

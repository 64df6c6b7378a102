#!/usr/bin/env python3
"""Run a set of benchmark runs and record every result line.

One checkout, ten seeds of every workload:

    python3 servebench/run_set.py --out a.jsonl

Paired runs of two checkouts (baseline first, change second), alternating
which side runs first on every seed, for bench_diff.py's paired rule:

    python3 servebench/run_set.py --checkout ../parent --out base.jsonl \\
        --checkout . --out change.jsonl

Each output line is {"workload", "seed", "trace", "exit", "result"}, where
"result" is the run's last stdout line (null when it printed none). Seeds,
workloads, run length and trace mode default to BENCHMARK.json's.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(checkout, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(checkout, "servebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": run.returncode, "result": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append",
                        help="checkout to run (repeat for paired runs; "
                             "default: this one)")
    parser.add_argument("--out", action="append", required=True,
                        help="JSONL output, one per --checkout")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkouts = [os.path.abspath(c) for c in (args.checkout or [os.path.dirname(HERE)])]
    if len(args.out) != len(checkouts):
        parser.error("give one --out per --checkout")
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    outputs = [open(path, "a") for path in args.out]
    try:
        for index, seed in enumerate(range(args.first_seed,
                                           args.first_seed + args.seeds)):
            for workload in workloads:
                order = list(range(len(checkouts)))
                if index % 2:
                    order.reverse()  # alternate which side runs first
                for side in order:
                    record = run_one(checkouts[side], workload, seed, seconds,
                                     args.trace)
                    outputs[side].write(json.dumps(record) + "\n")
                    outputs[side].flush()
                    print("%s seed %d side %d: exit %d" %
                          (workload, seed, side, record["exit"]), file=sys.stderr)
    finally:
        for output in outputs:
            output.close()


if __name__ == "__main__":
    main()

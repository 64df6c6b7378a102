#!/usr/bin/env python3
"""Build and run the serve benchmark for one workload.

    python3 servebench/run.py --workload miss-exact --seed 1 --seconds 10 \\
        --trace 0

Builds the swdual library and the two benchmark programs from source under
.bench_build/servebench at the repository root (the first run compiles,
later runs reuse the build), then runs

  --trace 0  servebench: the end-to-end metrics of BENCHMARK.json;
  --trace 1  servebench_layers: the per-layer metrics, with the spans
             written as Chrome-trace JSON to
             .bench_build/servebench-trace-<workload>-<seed>.json.

The program's JSON result is the last line of stdout and its exit code is
passed through (nonzero when any output was wrong). A failed build exits
nonzero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "servebench")


def build(target):
    """Configure (once) and build `target`; exit 1 with the log on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, generated))
               for generated in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("error: benchmark build failed (%s)\n" % log_path)
                sys.exit(1)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("servebench_layers" if args.trace else "servebench")
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--work-dir", work]
    if args.trace:
        command += ["--trace-out", os.path.join(
            OUT, "servebench-trace-%s-%d.json" % (args.workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

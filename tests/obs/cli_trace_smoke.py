#!/usr/bin/env python3
"""End-to-end smoke test for `database_search --trace/--metrics`.

Runs the example binary on a tiny generated workload, then checks that the
trace file is valid Chrome trace_event JSON (every event carries ph/ts/pid)
and that the metrics dump reached stdout. The tracer is always compiled,
so a traced run must record events.
"""
import json
import subprocess
import sys
import tempfile
import os


def main():
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        cmd = [
            binary,
            "--generate", "uniprot",
            "--scale", "20000",
            "--queries", "2",
            "--cpus", "2",
            "--gpus", "1",
            "--trace", trace_path,
            "--metrics",
        ]
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=300)
        if result.returncode != 0:
            print(result.stdout)
            print(result.stderr)
            raise SystemExit(f"database_search exited {result.returncode}")

        if "counter tasks_dispatched" not in result.stdout:
            print(result.stdout)
            raise SystemExit("metrics dump missing from stdout")

        with open(trace_path) as handle:
            trace = json.load(handle)
        events = trace["traceEvents"]
        assert isinstance(events, list), "traceEvents must be a list"
        assert events, "a traced run recorded no events"
        for event in events:
            for key in ("ph", "ts", "pid"):
                assert key in event, f"event missing {key!r}: {event}"
        print(f"ok: {len(events)} events, metrics dumped")


if __name__ == "__main__":
    main()

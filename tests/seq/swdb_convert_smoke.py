#!/usr/bin/env python3
"""End-to-end smoke test for the `swdb_convert` example.

Usage: swdb_convert_smoke.py <path to swdb_convert>

Checks three things on a small FASTA file:
  * FASTA -> SWDB -> FASTA gives back the input records (ids,
    descriptions, residues);
  * `--stats` on the SWDB prints the same sequence count, residue total,
    minimum and maximum length as on the FASTA;
  * the removed `--db-version` option is refused (non-zero exit, and the
    error names the unknown option).
"""
import os
import re
import subprocess
import sys
import tempfile

RECORDS = [
    ("sp|P1", "first record", "MKTAYIAKQRQISFVKSHFSRQ"),
    ("sp|P2", "", "A"),
    ("sp|P3", "a longer one with X", "ACDEFGHIKLMNPQRSTVWYX" * 7),
    ("tr|Q4", "wrapped lines", "MSTNPKPQRKTKRNTNRRPQDVKFPGG" * 5),
]


def write_fasta(path, records):
    with open(path, "w") as out:
        for rid, desc, seq in records:
            out.write(f">{rid} {desc}\n" if desc else f">{rid}\n")
            for i in range(0, len(seq), 50):
                out.write(seq[i:i + 50] + "\n")


def read_fasta(path):
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith(">"):
                rid, _, desc = line[1:].partition(" ")
                records.append([rid, desc, ""])
            elif line:
                records[-1][2] += line
    return [tuple(r) for r in records]


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def check_ok(result, what):
    if result.returncode != 0:
        print(result.stdout)
        print(result.stderr)
        raise SystemExit(f"{what} exited {result.returncode}")


def stats(binary, path):
    result = run([binary, "--stats", path])
    check_ok(result, f"--stats {os.path.basename(path)}")
    values = {}
    for line in result.stdout.splitlines():
        cells = re.split(r"\s{2,}", line.strip())  # "min length    1"
        if len(cells) == 2:
            values[cells[0]] = cells[1]
    keys = ("sequences", "residues", "min length", "max length")
    missing = [k for k in keys if k not in values]
    if missing:
        print(result.stdout)
        raise SystemExit(f"--stats output lacks {missing}")
    return {k: values[k] for k in keys}


def main():
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        fasta = os.path.join(tmp, "in.fasta")
        swdb = os.path.join(tmp, "db.swdb")
        back = os.path.join(tmp, "back.fasta")
        write_fasta(fasta, RECORDS)

        check_ok(run([binary, fasta, swdb]), "FASTA -> SWDB")
        check_ok(run([binary, swdb, back]), "SWDB -> FASTA")
        got = read_fasta(back)
        if got != RECORDS:
            raise SystemExit(f"round trip changed the records:\n{got}")

        want = stats(binary, fasta)
        have = stats(binary, swdb)
        if have != want:
            raise SystemExit(f"--stats differ: FASTA {want}, SWDB {have}")
        if want["sequences"] != str(len(RECORDS)):
            raise SystemExit(f"--stats counted {want['sequences']} records")

        result = run([binary, "--db-version", "1", fasta, swdb])
        message = "unknown option --db-version"
        if result.returncode == 0 or message not in result.stderr:
            print(result.stdout)
            print(result.stderr)
            raise SystemExit(f"--db-version was not refused with '{message}'")
    print(f"ok: {len(RECORDS)} records round-trip, --stats agree, "
          "--db-version refused")


if __name__ == "__main__":
    main()

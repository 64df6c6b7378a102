#!/usr/bin/env python3
"""Project-rule linter for the SWDUAL source tree.

Enforces conventions clang-tidy cannot express:

  * every header starts with ``#pragma once``
  * banned unsafe/stateful C functions (rand, strtok, sprintf, atoi) —
    the project uses util/rng.h and iostreams instead
  * no wall-clock reads in the DES or scheduler (virtual-time code paths
    must stay deterministic and reproducible)
  * no unordered-container iteration in the observability exporters
    (trace/metrics output order must be deterministic for golden tests)
  * no raw stream/stdio reads of SWDB record payloads outside seq/swdb.cpp
    (every consumer goes through SwdbReader or the zero-copy MappedSwdb so
    format evolution stays in one translation unit)
  * lock hygiene: raw standard lockables (std::mutex, std::lock_guard,
    std::condition_variable, ...) are banned outside src/util/mutex.h —
    they are invisible to Clang's thread-safety analysis; use the annotated
    util::Mutex / util::MutexLock / util::CondVar wrappers. std::once_flag
    and std::call_once stay allowed (no guarded state to annotate).
  * bare .lock()/.unlock()/... calls are banned outside src/util/ — manual
    lock management defeats both the RAII discipline and the static
    analysis; use the scoped util::*MutexLock types
  * no ``banded_gotoh_score`` calls outside src/align/ — the scalar banded
    kernel is the screen's reference oracle, not a search primitive; other
    layers go through the search pipeline (align::search with a FilterConfig,
    or screen_range / banded_screen), which keeps band semantics and
    escalation in one place
  * ``filter_select_candidates`` and ``annotate_hits`` are called only from
    src/align/pipeline.cpp (and annotate.cpp, which holds annotate_hits'
    overloads) — candidate selection and annotation are pipeline stages,
    written once, not re-implemented per engine or layer
  * no ``calibrate_gapped_params`` / ``sw_align_affine`` calls outside
    src/align/ and src/core/ — statistics calibration is StatsCache's job
    (deterministic, shared, cached per database) and the O(m·n) traceback
    must not leak into service layers; annotation goes through
    AnnotateConfig + annotate_hits
  * optionally (--cxx), every header under src/ compiles standalone

Exit status 0 when clean, 1 with one ``file:line: message`` per violation
otherwise. Run from anywhere: paths resolve relative to the repo root.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

BANNED_CALLS = re.compile(r"(?<![\w:])(?:std::)?(rand|strtok|sprintf|atoi)\s*\(")
WALL_CLOCK = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
)
UNORDERED = re.compile(r"std::unordered_(map|set|multimap|multiset)")

# Virtual-time code: progress is driven by modeled task durations, never by
# the host clock. util/timer.h (wall time) is for the outermost reports and
# perf-model calibration only.
VIRTUAL_TIME_PREFIXES = ("src/platform/des", "src/sched/")
WALL_CLOCK_HEADERS = re.compile(r'#include\s+"util/timer\.h"')

# Exporters whose output order golden tests depend on.
DETERMINISTIC_DIRS = ("obs",)

# Compile-time lock discipline (util/thread_annotations.h): raw standard
# lockables are opaque to Clang's -Wthread-safety, so every concurrent layer
# must hold its state under the annotated wrappers from util/mutex.h — the
# one file allowed to name the std types. std::once_flag / std::call_once
# are deliberately NOT banned: one-shot initialization has no guarded member
# to annotate and no ordering to declare.
RAW_LOCKABLE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_LOCKABLE_ALLOWED = ("src/util/mutex.h",)

# Manual lock()/unlock() calls defeat both RAII and the static analysis
# (an early return or throw leaks the capability). src/util/ implements the
# wrappers, so only it may touch the primitive operations.
BARE_LOCK_CALL = re.compile(
    r"\.\s*(lock|unlock|try_lock|lock_shared|unlock_shared|"
    r"try_lock_shared)\s*\("
)
BARE_LOCK_ALLOWED_PREFIX = "src/util/"

# Raw byte-level input: .read(...) on a stream or C stdio fread. Database
# payload parsing is SwdbReader/MappedSwdb's job; any other TU doing its own
# reads would fork the format knowledge (and silently miss v2 sections).
RAW_PAYLOAD_READ = re.compile(r"(?:\.read\s*\(|(?<![\w:])fread\s*\()")
RAW_READ_ALLOWED = ("src/seq/swdb.cpp",)

# The scalar banded kernel is align-internal: it is the bit-identity oracle
# for the vectorized screen and the overflow fallback of the filter stage.
# Any other layer calling it directly would fork band/escalation semantics
# away from the pipeline (FilterConfig validation, edge_hit handling, the
# 8->16->32-bit ladder), so everything outside src/align/ must go through
# the search pipeline (align::search) or screen_range.
BANDED_ORACLE_CALL = re.compile(r"\bbanded_gotoh_score\s*\(")
BANDED_ORACLE_ALLOWED_PREFIX = "src/align/"

# Statistics calibration and the full-matrix traceback are annotation
# internals: calibrate_gapped_params must go through align::StatsCache (one
# deterministic calibration per (scheme, alphabet, db), shared), and
# sw_align_affine's O(m·n) matrix must not leak into service layers — the
# annotate stage uses the linear-space traceback (sw_align_affine_linear).
# Other layers request annotation via AnnotateConfig instead.
STATS_INTERNAL_CALL = re.compile(
    r"\b(calibrate_gapped_params|sw_align_affine)\s*\("
)
STATS_INTERNAL_ALLOWED_PREFIXES = ("src/align/", "src/core/")

# The search pipeline (align/pipeline.h) writes screen -> select -> rescan ->
# rank -> recover -> annotate once for every engine. A second caller of a
# stage would fork the stage sequence again (the per-engine filter copies
# and post-merge annotate calls this rule exists to keep out).
PIPELINE_STAGE_CALL = re.compile(
    r"\b(filter_select_candidates|annotate_hits|annotate_stats|annotate_cigar)"
    r"\s*\("
)
PIPELINE_STAGE_CALLERS = ("src/align/pipeline.cpp", "src/align/annotate.cpp")


def is_call(code: str, match: re.Match) -> bool:
    """True unless the match is a declaration or definition (a return type
    precedes the name on its line)."""
    line_start = code.rfind("\n", 0, match.start()) + 1
    before = code[line_start:match.start()].rstrip()
    before = re.sub(r"(?:\w*::)+$", "", before).rstrip()
    if not before or before.endswith("return"):
        return True
    return not (before[-1].isalnum() or before[-1] in "_>&*")


def strip_comments(text: str) -> str:
    """Blank out comments and string literals, preserving line numbers."""
    out: list[str] = []
    i, n = 0, len(text)
    mode = None  # None | "line" | "block" | "str" | "char"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
            elif c == "'":
                mode = "char"
            out.append(c)
        else:
            if mode == "line" and c == "\n":
                mode = None
            elif mode == "block" and c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            elif mode in ("str", "char") and c == "\\":
                out.append("  ")
                i += 2
                continue
            elif (mode == "str" and c == '"') or (mode == "char" and c == "'"):
                mode = None
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def iter_sources():
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".h", ".cpp") and path.is_file():
            yield path


def lint_file(path: pathlib.Path) -> list[str]:
    raw = path.read_text(encoding="utf-8")
    code = strip_comments(raw)
    rel = path.relative_to(REPO)
    problems = []

    def report(lineno: int, message: str) -> None:
        problems.append(f"{rel}:{lineno}: {message}")

    if path.suffix == ".h":
        first_code_line = next(
            (l for l in raw.splitlines() if l.strip() and not l.lstrip().startswith("//")),
            "",
        )
        if first_code_line.strip() != "#pragma once":
            report(1, "header must open with '#pragma once' after the file comment")

    for match in BANNED_CALLS.finditer(code):
        lineno = code.count("\n", 0, match.start()) + 1
        report(
            lineno,
            f"banned call '{match.group(1)}' — use util/rng.h / iostreams "
            "/ std::sto* instead",
        )

    top_dir = rel.parts[1] if len(rel.parts) > 1 else ""
    if rel.as_posix().startswith(VIRTUAL_TIME_PREFIXES):
        for pattern, message in (
            (WALL_CLOCK, "wall-clock read in virtual-time code"),
            (WALL_CLOCK_HEADERS, "util/timer.h (wall time) in virtual-time code"),
        ):
            for match in pattern.finditer(code):
                lineno = code.count("\n", 0, match.start()) + 1
                report(lineno, f"{message} — the DES and schedulers must be "
                               "deterministic in virtual time")

    if rel.as_posix() not in RAW_LOCKABLE_ALLOWED:
        for match in RAW_LOCKABLE.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                f"raw std::{match.group(1)} — invisible to the thread-safety "
                "analysis; use the annotated util::Mutex / util::MutexLock / "
                "util::CondVar wrappers (util/mutex.h)",
            )

    if not rel.as_posix().startswith(BARE_LOCK_ALLOWED_PREFIX):
        for match in BARE_LOCK_CALL.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                f"bare .{match.group(1)}() outside src/util/ — manual lock "
                "management leaks on early exit; use a scoped "
                "util::*MutexLock",
            )

    if rel.as_posix() not in RAW_READ_ALLOWED:
        for match in RAW_PAYLOAD_READ.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                "raw stream/fread outside seq/swdb.cpp — read database "
                "records via SwdbReader or MappedSwdb",
            )

    if not rel.as_posix().startswith(BANDED_ORACLE_ALLOWED_PREFIX):
        for match in BANDED_ORACLE_CALL.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                "banded_gotoh_score outside src/align/ — the scalar banded "
                "oracle is align-internal; use the search pipeline "
                "(align::search) or screen_range",
            )

    if not rel.as_posix().startswith(STATS_INTERNAL_ALLOWED_PREFIXES):
        for match in STATS_INTERNAL_CALL.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                f"{match.group(1)} outside src/align//src/core/ — "
                "calibration goes through align::StatsCache and tracebacks "
                "through the annotate pipeline (AnnotateConfig + "
                "annotate_hits)",
            )

    if rel.as_posix() not in PIPELINE_STAGE_CALLERS:
        for match in PIPELINE_STAGE_CALL.finditer(code):
            if not is_call(code, match):
                continue
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                f"{match.group(1)} called outside src/align/pipeline.cpp — "
                "selection and annotation are search-pipeline stages; build "
                "an align::SearchRequest and call align::search",
            )

    if top_dir in DETERMINISTIC_DIRS:
        for match in UNORDERED.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            report(
                lineno,
                f"std::unordered_{match.group(1)} in an exporter — iteration "
                "order feeds trace/metrics output; use std::map/std::set",
            )

    return problems


def check_self_contained(cxx: str) -> list[str]:
    """Compile each header alone: it must pull in everything it needs."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tu = pathlib.Path(tmp) / "self_contained.cpp"
        for header in sorted(SRC.rglob("*.h")):
            rel = header.relative_to(SRC)
            tu.write_text(f'#include "{rel.as_posix()}"\n', encoding="utf-8")
            proc = subprocess.run(
                [cxx, "-std=c++20", "-fsyntax-only", "-I", str(SRC), str(tu)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                first = (proc.stderr.strip() or "compile failed").splitlines()[0]
                problems.append(
                    f"src/{rel.as_posix()}:1: header is not self-contained: {first}"
                )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cxx",
        help="compiler for the header self-containment check (skipped if unset)",
    )
    args = parser.parse_args()

    problems: list[str] = []
    for path in iter_sources():
        problems.extend(lint_file(path))
    if args.cxx:
        problems.extend(check_self_contained(args.cxx))

    for problem in problems:
        print(problem)
    count = len(list(iter_sources()))
    if problems:
        print(f"swdual_lint: {len(problems)} problem(s) in {count} files")
        return 1
    print(f"swdual_lint: {count} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

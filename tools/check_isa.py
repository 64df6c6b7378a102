#!/usr/bin/env python3
"""ISA boundary check for the swdual libraries' object files.

The build compiles every translation unit for baseline x86-64 except the two
wide SIMD backends, and CPUID dispatch decides at run time which of those
runs (src/align/backend.h). This check disassembles object files and fails
if wider code leaked past that boundary:

  * an object other than kernel_backend_avx2.cpp.o and
    kernel_backend_avx512.cpp.o holds a VEX- or EVEX-encoded instruction
    (the AVX family, which objdump prints with a ``v`` prefix, and the
    VEX-encoded BMI and opmask instructions);
  * kernel_backend_avx2.cpp.o holds an EVEX-encoded instruction or names a
    zmm register, an opmask register (%k0-%k7) or xmm/ymm16-31.

A host-specific -march flag on the whole build fails the first rule at
once. A linked executable gets a third rule, for what the linker chose:

  * a global or weak function holding VEX or EVEX code must be an
    instantiation on a wide vector type (V8x32, V16x16, V8x64, V16x32),
    which only the wide backends instantiate. Any other such function is a
    helper every backend shares (say, a std::stable_sort step), of which
    the linker kept a wide backend's copy, so the sse2 and scalar backends
    would run it too.

    python3 tools/check_isa.py --objdump objdump build/src/*/libswdual_*.a \
        build/tests/align/test_backend_equivalence

Arguments are object files, static archives (objdump lists an archive's
members by name) or linked executables. Exit status 0 when clean, 1 with
one line per offending object or function otherwise.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

AVX2_OBJECT = "kernel_backend_avx2.cpp.o"
AVX512_OBJECT = "kernel_backend_avx512.cpp.o"

# In 64-bit mode 0xC4/0xC5 open a VEX prefix and 0x62 an EVEX prefix (LES,
# LDS and BOUND do not exist there). Only segment and address-size prefixes
# may precede them.
LEGACY_PREFIXES = {"26", "2e", "36", "3e", "64", "65", "67"}
VEX_BYTES = {"c4", "c5"}
EVEX_BYTE = "62"
# Registers only EVEX can name.
EVEX_REGISTER = re.compile(r"%(zmm\d+|k[0-7]\b|[xy]mm(1[6-9]|2\d|3[01])\b)")

MEMBER = re.compile(r"^(\S+):\s+file format ")
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\t([0-9a-f ]+)\t(\S+)\s*(.*)$")
FUNCTION = re.compile(r"^([0-9a-f]+) <(.*)>:$")
# objdump -t: address, 7 flag characters (the first 'l' for local), section.
SYMBOL = re.compile(r"^([0-9a-f]+) (.)(.{6}) \S+\t[0-9a-f]+\s+(.*)$")
WIDE_TYPE = re.compile(r"\b(V8x32|V16x16|V8x64|V16x32)\b")


def encoding(raw: str) -> str:
    """'evex', 'vex' or '' for an instruction's leading raw bytes."""
    for byte in raw.split():
        if byte in LEGACY_PREFIXES:
            continue
        if byte == EVEX_BYTE:
            return "evex"
        return "vex" if byte in VEX_BYTES else ""
    return ""


def scan(objdump: str, path: str, found: dict[str, dict]) -> None:
    """Adds per-object counts of VEX and EVEX instructions and of operands
    in EVEX-only registers to `found`, keyed by object file name."""
    listing = subprocess.run([objdump, "-d", path], check=True,
                             capture_output=True, text=True)
    current = None
    for line in listing.stdout.splitlines():
        member = MEMBER.match(line)
        if member:
            name = member.group(1).rsplit("/", 1)[-1]
            current = found.setdefault(name, {
                "vex": 0, "evex": 0, "evex_regs": 0,
                "first_wide": "", "first_evex": ""})
            continue
        instruction = INSTRUCTION.match(line)
        if current is None or not instruction:
            continue
        raw, mnemonic, operands = instruction.groups()
        text = f"{mnemonic} {operands}".strip()
        kind = encoding(raw)
        evex_register = EVEX_REGISTER.search(operands) is not None
        if kind:
            current[kind] += 1
            current["first_wide"] = current["first_wide"] or text
        if evex_register:
            current["evex_regs"] += 1
        if kind == "evex" or evex_register:
            current["first_evex"] = current["first_evex"] or text


def is_linked(path: str) -> bool:
    """True for an ELF executable or shared object (e_type 2 or 3)."""
    with open(path, "rb") as file:
        header = file.read(18)
    return header[:4] == b"\x7fELF" and header[16] in (2, 3)


def linked_leaks(objdump: str, path: str) -> list[str]:
    """Global or weak functions of a linked file that hold VEX or EVEX code
    without naming a wide vector type."""
    symbols = subprocess.run([objdump, "-t", path], check=True,
                             capture_output=True, text=True).stdout
    exported = set()
    for line in symbols.splitlines():
        symbol = SYMBOL.match(line)
        if symbol and symbol.group(2) != "l" and "F" in symbol.group(3):
            exported.add(int(symbol.group(1), 16))
    listing = subprocess.run([objdump, "-d", "-C", path], check=True,
                             capture_output=True, text=True).stdout
    leaks: dict[str, int] = {}
    name = None
    for line in listing.splitlines():
        function = FUNCTION.match(line)
        if function:
            address, demangled = function.groups()
            name = (demangled if int(address, 16) in exported and
                    not WIDE_TYPE.search(demangled) else None)
            continue
        instruction = INSTRUCTION.match(line)
        if name and instruction and encoding(instruction.group(1)):
            leaks[name] = leaks.get(name, 0) + 1
    base = path.rsplit("/", 1)[-1]
    return [f"{base}: {count} VEX/EVEX instructions in shared function "
            f"`{function}` (the linker kept a wide backend's copy; list "
            f"the wide backends after every baseline object)"
            for function, count in sorted(leaks.items())]


def violations(found: dict[str, dict]) -> list[str]:
    out = []
    for name, counts in sorted(found.items()):
        if name == AVX512_OBJECT:
            continue
        if name == AVX2_OBJECT:
            if counts["evex"] or counts["evex_regs"]:
                out.append(f"{name}: {counts['evex']} EVEX instructions, "
                           f"{counts['evex_regs']} operands in zmm, opmask "
                           f"or [xy]mm16-31 registers, e.g. "
                           f"`{counts['first_evex']}` (the avx2 backend must "
                           f"hold AVX2 code only)")
        elif counts["vex"] or counts["evex"]:
            out.append(f"{name}: {counts['vex']} VEX and {counts['evex']} "
                       f"EVEX instructions, e.g. `{counts['first_wide']}` "
                       f"(only the avx2 and avx512 backends may hold them)")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--objdump", default="objdump")
    parser.add_argument("inputs", nargs="+",
                        help="object files, static archives or linked "
                             "executables")
    args = parser.parse_args()

    found: dict[str, dict] = {}
    linked = [path for path in args.inputs if is_linked(path)]
    for path in args.inputs:
        if path not in linked:
            scan(args.objdump, path, found)
    problems = violations(found)
    for path in linked:
        problems += linked_leaks(args.objdump, path)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"ok: {len(found)} objects and {len(linked)} linked files, wide "
          f"code only in the backends")
    return 0


if __name__ == "__main__":
    sys.exit(main())

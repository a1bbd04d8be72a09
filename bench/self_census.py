#!/usr/bin/env python3
"""Size census of this repository, in the manner of the paper's Table 1.

Prints one JSON line, {"bench": "self_census", ...}: non-blank lines per
src/ module (lines_kernel_design sums kernel, sync, sim and hw, to set
against lines_baseline) and in src/, bench/ and tests/, KernelGates public
member functions, top-level fields of each configuration struct in
CONFIG_STRUCTS, and occurrences of "legacy" or "byte-identical" in src/.
bench/run_all.sh appends the line to its collection, so compare_bench.py
flags growth like any cost metric.

Usage: self_census.py [repo-root]   (default: the parent of this directory)
"""

import json
import os
import re
import sys

CONFIG_STRUCTS = (
    ("KernelConfig", "src/kernel/kernel.h"),
    ("BaselineConfig", "src/baseline/supervisor.h"),
    ("AnsweringConfig", "src/answering/service.h"),
    ("PagingPipeline", "src/kernel/page_frame.h"),
    ("HwFeatures", "src/hw/machine.h"),
)


def source_files(directory):
    for dirpath, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith((".h", ".cc", ".py", ".sh")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    yield f.read()


def non_blank_lines(directory):
    return sum(1 for text in source_files(directory) for line in text.splitlines()
               if line.strip())


def public_members(path, keyword, name):
    """Top-level public declarations of `keyword name`, one string each."""
    with open(path, encoding="utf-8") as f:
        text = re.sub(r"//[^\n]*|/\*.*?\*/", "", f.read(), flags=re.DOTALL)
    start = re.search(r"\b%s\s+%s\b[^;{]*\{" % (keyword, name), text).end()
    depth = 1
    for end in range(start, len(text)):
        depth += {"{": 1, "}": -1}.get(text[end], 0)
        if depth == 0:
            break
    body = text[start:end]
    while True:  # collapse nested blocks to "@", innermost first
        collapsed = re.sub(r"\{[^{}]*\}", "@", body)
        if collapsed == body:
            break
        body = collapsed
    body = re.split(r"\b(?:private|protected)\s*:", body)[0].replace("public:", "")
    body = re.sub(r"\)[^;=@()]*@", ");", body)  # an inline body ends its declaration
    return [" ".join(m.split()) for m in body.split(";") if m.strip()]


def declarator(member):
    return re.split(r"[=@]", member, maxsplit=1)[0]


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(root, "src")
    row = {"bench": "self_census"}
    for module in sorted(os.listdir(src)):
        if os.path.isdir(os.path.join(src, module)):
            row["lines_" + module] = non_blank_lines(os.path.join(src, module))
    row["lines_kernel_design"] = sum(row["lines_" + m] for m in ("kernel", "sync", "sim", "hw"))
    for tree in ("src", "bench", "tests"):
        row["lines_" + tree] = non_blank_lines(os.path.join(root, tree))
    row["gate_entry_points"] = sum(
        1 for m in public_members(os.path.join(root, "src/kernel/gates.h"), "class", "KernelGates")
        if "(" in declarator(m) and not re.match(r"static\b|(explicit\s+)?KernelGates\s*\(", m))
    for name, header in CONFIG_STRUCTS:
        row["fields_" + name] = sum(
            1 for m in public_members(os.path.join(root, header), "struct", name)
            if "(" not in declarator(m) and not re.match(r"(static|using|enum|struct)\b", m))
    row["config_fields"] = sum(row["fields_" + name] for name, _ in CONFIG_STRUCTS)
    row["shim_mentions"] = sum(len(re.findall(r"legacy|byte-identical", text, re.IGNORECASE))
                               for text in source_files(src))
    print(json.dumps(row))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Fail when README.md or DESIGN.md names a file or binary that is gone.

Usage: python3 ci/doc_refs.py   (from the repository root)

Checks two kinds of reference:
- a backticked path whose first component is one of the top-level
  entries below must exist; a Rust path after `::` is ignored, so
  `crates/imt::model` checks `crates/imt`;
- every `--bin <name>` must name a binary of the root workspace or of
  `benchmark/` (as `cargo metadata` lists them).

Prints each broken reference as `file:line: ...` and exits 1 if there
is any.
"""
import json
import os
import re
import subprocess
import sys

DOCS = ("README.md", "DESIGN.md")
ROOTS = ("crates", "ci", "tests", "examples", "benchmark", ".github")
SPAN = re.compile(r"`([^`\n]+)`")
BIN = re.compile(r"--bin[ =]([A-Za-z0-9_-]+)")


def binaries():
    names = set()
    for manifest in ("Cargo.toml", "benchmark/Cargo.toml"):
        meta = json.loads(
            subprocess.check_output(
                ["cargo", "metadata", "--no-deps", "--offline", "--format-version", "1",
                 "--manifest-path", manifest]
            )
        )
        for package in meta["packages"]:
            for target in package["targets"]:
                if "bin" in target["kind"]:
                    names.add(target["name"])
    return names


def main():
    bins = binaries()
    broken = []
    for doc in DOCS:
        with open(doc) as f:
            lines = f.read().splitlines()
        for number, line in enumerate(lines, 1):
            for span in SPAN.findall(line):
                path = span.split("::")[0]
                if path.split("/")[0] in ROOTS and not os.path.exists(path):
                    broken.append(f"{doc}:{number}: `{span}`: no such path {path}")
            for name in BIN.findall(line):
                if name not in bins:
                    broken.append(f"{doc}:{number}: --bin {name}: no such binary")
    for message in broken:
        print(message)
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main()

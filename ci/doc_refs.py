#!/usr/bin/env python3
"""Fail when README.md or DESIGN.md names a file, binary or item that is gone.

Usage: python3 ci/doc_refs.py   (from the repository root)

Checks three kinds of reference:
- a backticked path whose first component is one of the top-level
  entries below must exist; a Rust path after `::` is ignored, so
  `crates/imt::model` checks `crates/imt`;
- every `--bin <name>` must name a binary of the root workspace or of
  `benchmark/` (as `cargo metadata` lists them);
- every `Type::item` in a backticked span (a capitalised name, then
  `::` and a word) needs a `struct`, `enum`, `trait` or `type` named
  `Type` declared in a `.rs` file under `crates/` or `benchmark/`, and
  `item` must be a word of such a file.

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
ITEM = re.compile(r"(?<!\w)([A-Z]\w*)::(\w+)")
DECL = re.compile(r"\b(?:struct|enum|trait|type)\s+([A-Za-z_]\w*)")


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


def declarations():
    """Type name -> sources of the `.rs` files that declare it."""
    declared = {}
    for root in ("crates", "benchmark"):
        for parent, dirs, files in os.walk(root):
            dirs[:] = [d for d in dirs if d != "target"]
            for name in files:
                if name.endswith(".rs"):
                    with open(os.path.join(parent, name)) as f:
                        source = f.read()
                    for ty in DECL.findall(source):
                        declared.setdefault(ty, []).append(source)
    return declared


def item_error(declared, ty, item):
    if ty not in declared:
        return f"no struct, enum, trait or type {ty}"
    word = re.compile(r"\b%s\b" % re.escape(item))
    if not any(word.search(source) for source in declared[ty]):
        return f"no {item} in the file that declares {ty}"
    return None


def main():
    bins = binaries()
    declared = declarations()
    broken = []
    for doc in DOCS:
        with open(doc) as f:
            lines = f.read().splitlines()
        for number, line in enumerate(lines, 1):
            for span in SPAN.findall(line):
                path = span.split("::")[0]
                if path.split("/")[0] in ROOTS and not os.path.exists(path):
                    broken.append(f"{doc}:{number}: `{span}`: no such path {path}")
                for ty, item in ITEM.findall(span):
                    error = item_error(declared, ty, item)
                    if error:
                        broken.append(f"{doc}:{number}: `{span}`: {error}")
            for name in BIN.findall(line):
                if name not in bins:
                    broken.append(f"{doc}:{number}: --bin {name}: no such binary")
    for message in broken:
        print(message)
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main()

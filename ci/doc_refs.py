#!/usr/bin/env python3
"""Fail when README.md or DESIGN.md names a file, binary or item that is gone.

Usage: python3 ci/doc_refs.py   (from the repository root)

Checks four kinds of reference:
- a backticked path whose first component is one of the top-level
  entries below must exist; a Rust path after `::` is ignored, so
  `crates/imt::model` checks `crates/imt`;
- every `--bin <name>` must name a binary of the root workspace or of
  `benchmark/` (as `cargo metadata` lists them);
- every `Type::item` in a backticked span (a capitalised name, then
  `::` and a word) needs a `struct`, `enum`, `trait` or `type` named
  `Type` declared in a `.rs` file under `crates/` or `benchmark/`, and
  `item` must be a word of such a file;
- every `module::item` in a backticked span (a lowercase name, then
  `::` and one or more `::`-separated words, each checked as an item;
  paths that start at `std`, `crate`, `self`, `super` or a primitive
  type are skipped) must resolve: either `module.rs` or `module/mod.rs`
  exists under `crates/` or `benchmark/` and `item` is a word of it, or
  `module` names a crate (`crates/module/`, or `flash_module` for its
  library name) and `item` is one of its module files or a word of its
  sources.

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
# A lowercase path `module::item` or `module::a::b`; every item after the
# first segment is checked against the module.
MODULE_PATH = re.compile(r"(?<![\w:])([a-z_][a-z0-9_]*)((?:::\w+)+)")
NOT_MODULES = {"std", "crate", "self", "super", "bool", "char", "str"} | {
    f"{sign}{bits}" for sign in "iu" for bits in ("8", "16", "32", "64", "128", "size")
} | {"f32", "f64"}


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


def sources():
    """Path -> source of every `.rs` file under `crates/` and `benchmark/`."""
    found = {}
    for root in ("crates", "benchmark"):
        for parent, dirs, files in os.walk(root):
            dirs[:] = [d for d in dirs if d != "target"]
            for name in files:
                if name.endswith(".rs"):
                    path = os.path.join(parent, name)
                    with open(path) as f:
                        found[path] = f.read()
    return found


def declarations(files):
    """Type name -> sources of the `.rs` files that declare it."""
    declared = {}
    for source in files.values():
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


def module_error(files, module, item):
    word = re.compile(r"\b%s\b" % re.escape(item))
    files_named = [
        source for path, source in files.items()
        if path.endswith((os.sep + module + ".rs", os.sep + module + os.sep + "mod.rs"))
    ]
    if any(word.search(source) for source in files_named):
        return None
    crate = os.path.join("crates", module[len("flash_"):] if module.startswith("flash_") else module)
    if os.path.isdir(crate):
        prefix = crate + os.sep
        in_crate = {path: source for path, source in files.items() if path.startswith(prefix)}
        if any(os.path.basename(path) == item + ".rs" for path in in_crate):
            return None
        if any(word.search(source) for source in in_crate.values()):
            return None
        return f"no module or word {item} in {crate}"
    if files_named:
        return f"no {item} in {module}.rs"
    return f"no module file {module}.rs and no crate {crate}"


def main():
    bins = binaries()
    files = sources()
    declared = declarations(files)
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
                for module, items in MODULE_PATH.findall(span):
                    if module in NOT_MODULES:
                        continue
                    for item in items.split("::")[1:]:
                        error = module_error(files, module, item)
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

#!/usr/bin/env python3
"""Fail when a MemifConfig or HeatConfig field is never assigned.

A config field is a value some caller sets. A tuning value that nobody
sets is a named constant next to its one use (CONTRIBUTING.md "Adding a
config lever"), not a field every validator and covering array must
handle. This script lists the fields of both structs and looks for an
assignment to each (`x.field = ...`, `x.heat.field = ...` or a
designated initializer `.field = ...`) in the presets and in every
caller: bench/, tests/, examples/, src/check/ and perfbench/.

Usage: python3 scripts/check_config_knobs.py [repo-root]
"""

import pathlib
import re
import sys

# Where each struct is declared, and the struct's name.
STRUCTS = [
    ("src/memif/device.h", "MemifConfig"),
    ("src/memif/heat_policy.h", "HeatConfig"),
]
# Assignments count here: the preset functions live in device.h itself.
CALLER_DIRS = ["bench", "tests", "examples", "src/check", "perfbench"]
CALLER_FILES = ["src/memif/device.h"]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

# One member declaration, its ';' dropped: `type name`, `type name = v`
# or `type name{}`.
FIELD = re.compile(r"^(?!static\b|using\b|enum\b)[\w:<>, ]+?\s(\w+)"
                   r"\s*(?:=.*|\{\})?$", re.S)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_fields(path, name):
    """Data members declared at the top level of `struct name { ... };`."""
    text = strip_comments(path.read_text())
    m = re.search(r"\bstruct\s+" + name + r"\s*\{", text)
    if not m:
        sys.exit(f"{path}: struct {name} not found")
    depth, stmt, fields = 1, "", []
    for ch in text[m.end():]:
        if ch == "{":
            depth += 1
            if depth == 2:
                stmt += ch
        elif ch == "}":
            depth -= 1
            if depth == 0:
                break
            if depth == 1:
                # A member function's body ends its declaration; a
                # braced default member initializer does not.
                func = re.search(r"\)\s*(?:const\s*)?\{$", stmt.rstrip())
                stmt = "" if func else stmt + ch
        elif depth == 1:
            if ch == ";":
                f = FIELD.match(stmt.strip())
                if f:
                    fields.append(f.group(1))
                stmt = ""
            else:
                stmt += ch
    return fields


def caller_text(root):
    files = [root / f for f in CALLER_FILES]
    for d in CALLER_DIRS:
        files += [p for p in sorted((root / d).rglob("*"))
                  if p.suffix in SOURCE_SUFFIXES]
    return "\n".join(strip_comments(p.read_text()) for p in files)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    callers = caller_text(root)
    unset = []
    for rel, name in STRUCTS:
        fields = struct_fields(root / rel, name)
        if not fields:
            sys.exit(f"{rel}: no fields parsed out of struct {name}")
        for field in fields:
            # x.field = v, x.field.sub = v, or .field = v in a braced init.
            assign = re.compile(r"\." + field + r"(?:\.\w+)*\s*=(?!=)")
            if not assign.search(callers):
                unset.append(f"{name}::{field}")
        print(f"{name}: {len(fields)} settable fields")
    if unset:
        print("never assigned outside their declaration (make each a named "
              "constant next to its use):")
        for f in unset:
            print(f"  {f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

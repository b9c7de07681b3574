#!/usr/bin/env python3
"""Fail when a config field or a stats counter has not earned its place.

A config field is a value some caller sets. A tuning value that nobody
sets is a named constant next to its one use, and a test alone does not
earn a field (CONTRIBUTING.md "Adding a config lever"): it is not worth
a field every validator and covering array must handle. This script
lists the fields of MemifConfig, HeatConfig and DmaDriverOptions and
looks for an assignment to each (`x.field = ...`, `x.heat.field = ...`,
`x.dma_options.field = ...` or a designated initializer
`.field = ...`) in the presets and in every caller: bench/, examples/,
src/check/ and perfbench/ count as callers, tests/ only as a test.

It fails on a field that nothing assigns, and on a field that only
tests/ assigns unless TEST_SEAMS below names it. It prints each
struct's field count, MemifConfig's boolean lever count and the test
seams, so a new field or a new test-only knob shows up in the output.

A device counter is read by something outside src/memif. The script
parses the MEMIF_DEVICE_COUNTERS list in src/memif/device.h and looks
for a member access to each counter (`.name`, `->name` or `::name`,
as in `dev.stats().name` or `&DeviceStats::name`) in bench/, tests/,
examples/, src/check/ and perfbench/, and fails on a counter that
nothing reads by name. MemifDevice::print_stats reads every counter
through the list, so its reads do not count.

The same holds for each field of the plain stats structs in
STATS_STRUCTS: a field that the same directories only ever increment
or assign (`++x.name`, `x.name += v`, `x.name = v`) and never read is
a counter nobody looks at, and fails too.

Usage: python3 scripts/check_config_knobs.py [repo-root]
"""

import pathlib
import re
import sys

# Where each struct is declared, and the struct's name.
STRUCTS = [
    ("src/memif/device.h", "MemifConfig"),
    ("src/memif/heat_policy.h", "HeatConfig"),
    ("src/dma/driver.h", "DmaDriverOptions"),
]
# Assignments count here: the preset functions live in device.h itself.
CALLER_DIRS = ["bench", "examples", "src/check", "perfbench"]
CALLER_FILES = ["src/memif/device.h"]
TEST_DIRS = ["tests"]
# The device counter list, and where its counters must be read.
COUNTERS = ("src/memif/device.h", "MEMIF_DEVICE_COUNTERS")
READER_DIRS = ["bench", "tests", "examples", "src/check", "perfbench"]
# The plain stats structs, whose fields must be read in READER_DIRS too.
STATS_STRUCTS = [
    ("src/dma/engine.h", "EngineStats"),
    ("src/dma/chain_cache.h", "ChainCacheStats"),
    ("src/memif/user_api.h", "UserStats"),
    ("src/vm/addr_space.h", "VmStats"),
    ("src/vm/tlb.h", "TlbStats"),
    ("src/os/kernel.h", "SyscallStats"),
    ("src/dma/descriptor.h", "DescriptorRamStats"),
]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

# The fields only tests assign, and what each one lets a test reach.
# Adding a test-only field means adding it here, in review.
TEST_SEAMS = {
    "MemifConfig::capacity":
        "small request regions, for slot exhaustion and small fixtures",
    "MemifConfig::allow_file_backed":
        "page-cache migration, beyond the paper's anonymous-only prototype",
    "MemifConfig::watchdog_margin":
        "deadlines placed on an exact instant, to stage wake-order ties",
    "MemifConfig::watchdog_slack":
        "deadlines placed on an exact instant, to stage wake-order ties",
    "MemifConfig::dma_max_retries":
        "a fault that reaches the fallback or the app on its first attempt",
    "MemifConfig::cpu_copy_fallback":
        "the rollback-and-fail leg of the recovery ladder, and the "
        "checker's self-test of an undeclared fault",
    "MemifConfig::tenant_inflight_quota":
        "admission rejection with a few requests",
    "MemifConfig::tenant_frame_quota":
        "frame-quota rejection with a small migration",
    "MemifConfig::tenant_queue_depth":
        "load shedding with a short backlog",
    "MemifConfig::scan_idle_park_epochs":
        "a scanner that never parks, or parks at once",
}

# One member declaration, its ';' dropped: `type name`, `type name = v`
# or `type name{}`.
FIELD = re.compile(r"^(?!static\b|using\b|enum\b)([\w:<>, ]+?)\s(\w+)"
                   r"\s*(?:=.*|\{\})?$", re.S)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_fields(path, name):
    """(type, name) of each data member declared at the top level of
    `struct name { ... };`."""
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
                    fields.append((f.group(1).strip(), f.group(2)))
                stmt = ""
            else:
                stmt += ch
    return fields


def counter_names(path, macro):
    """The counter names of `#define macro(X) X(name, "doc") ...`."""
    text = path.read_text()
    m = re.search(r"#define\s+" + macro + r"\(X\)((?:[^\n]*\\\n)*[^\n]*)",
                  text)
    if not m:
        sys.exit(f"{path}: #define {macro}(X) not found")
    return re.findall(r"\bX\((\w+),", strip_comments(m.group(1)))


def source_text(root, dirs, files=()):
    paths = [root / f for f in files]
    for d in dirs:
        paths += [p for p in sorted((root / d).rglob("*"))
                  if p.suffix in SOURCE_SUFFIXES]
    return "\n".join(strip_comments(p.read_text()) for p in paths)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    callers = source_text(root, CALLER_DIRS, CALLER_FILES)
    tests = source_text(root, TEST_DIRS)
    unset, test_only = [], []
    for rel, name in STRUCTS:
        fields = struct_fields(root / rel, name)
        if not fields:
            sys.exit(f"{rel}: no fields parsed out of struct {name}")
        for _, field in fields:
            # x.field = v, x.field.sub = v, or .field = v in a braced init.
            assign = re.compile(r"\." + field + r"(?:\.\w+)*\s*=(?!=)")
            if assign.search(callers):
                continue
            qualified = f"{name}::{field}"
            (test_only if assign.search(tests) else unset).append(qualified)
        levers = sum(1 for t, _ in fields if t == "bool")
        print(f"{name}: {len(fields)} settable fields, {levers} bool levers")

    counters = counter_names(root / COUNTERS[0], COUNTERS[1])
    if not counters:
        sys.exit(f"{COUNTERS[0]}: no counters parsed out of {COUNTERS[1]}")
    readers = source_text(root, READER_DIRS)

    def is_read(field):
        return re.search(r"(?:\.|->|::)\s*" + field + r"\b", readers)

    unread = [f"DeviceStats::{c}" for c in counters if not is_read(c)]
    print(f"DeviceStats: {len(counters)} counters in {COUNTERS[1]}")
    # A stats field's bumps and stores are not reads: drop them first.
    writes = re.compile(r"(?:\+\+|--)\s*[\w.>()-]*?(?:\.|->)\s*\w+"
                        r"|(?:\.|->)\s*\w+\s*(?:\+\+|--|[-+]?=(?!=))")
    readers = writes.sub("", readers)
    for rel, name in STATS_STRUCTS:
        fields = struct_fields(root / rel, name)
        if not fields:
            sys.exit(f"{rel}: no fields parsed out of struct {name}")
        unread += [f"{name}::{f}" for _, f in fields if not is_read(f)]
        print(f"{name}: {len(fields)} counters")

    failed = False
    if unread:
        failed = True
        print("counters nothing outside their layer reads (assert or "
              "report each one, or delete it):")
        for c in unread:
            print(f"  {c}")
    print(f"assigned only by tests ({len(test_only)}):")
    for f in test_only:
        print(f"  {f}" + ("" if f in TEST_SEAMS else "  <- not a test seam"))
    unlisted = [f for f in test_only if f not in TEST_SEAMS]
    if unlisted:
        failed = True
        print("a test alone does not earn a config field: fold each field "
              "marked above into its preset's lever or a named constant, "
              "or add it to TEST_SEAMS with what it lets a test reach")
    stale = sorted(set(TEST_SEAMS) - set(test_only))
    if stale:
        failed = True
        print("TEST_SEAMS names fields that are not test-only (remove "
              "them from the list):")
        for f in stale:
            print(f"  {f}")
    if unset:
        failed = True
        print("never assigned outside their declaration (make each a named "
              "constant next to its use):")
        for f in unset:
            print(f"  {f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

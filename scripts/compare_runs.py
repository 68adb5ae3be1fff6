#!/usr/bin/env python3
"""Compare the CSV bodies and the manifests of two result trees.

    python3 scripts/compare_runs.py [--expected LIST] DIR_A DIR_B

Every CSV under either directory (as written by scripts/run_all.sh) is
compared byte for byte below its `#` header lines, which carry the run's
hash and so differ between runs of different code. A body that differs
only in numbers, with the same rows and columns on both sides, is listed
with the largest absolute and relative difference over its cells and the
names of the columns whose cells differ. Every manifest.json is compared
as JSON without its wall times (`timings_sec` and `tracker.seconds`) and
its peak memory (`peak_rss_mb`), which vary from run to run, so the step
statistics of each integration must agree as well; a manifest
that differs is listed with the dotted names of the entries that differ.
Exits 0 when everything agrees, else 1 with what differs or exists on
one side only.

LIST (scripts/expected_changes.txt in CI, against the base commit) names
the outputs a change means to move, one a line; blank lines and lines
starting with # are skipped. A line is a CSV's path below the tree's
root (`table1/table1.csv`) or a manifest entry: the manifest's path, a
colon and the entry's dotted name
(`errors/manifest.json:integrator.solve.accepted`). Shell-style
wildcards match as in fnmatch (`*/manifest.json:integrator.*`). A
difference that the list names is marked "(expected)" and leaves the
exit status 0; every other still makes it 1, and so does a line of the
list that matches no difference (an old list would hide a later move),
which is named as "listed but unchanged".
"""

import argparse
import fnmatch
import json
import math
import pathlib
import sys


def csv_bodies(root: pathlib.Path) -> dict:
    bodies = {}
    for path in sorted(root.rglob("*.csv")):
        lines = path.read_bytes().splitlines(keepends=True)
        while lines and lines[0].startswith(b"#"):
            lines.pop(0)
        bodies[path.relative_to(root).as_posix()] = b"".join(lines)
    return bodies


def manifests(root: pathlib.Path) -> dict:
    """Every manifest.json under root, parsed, without its wall times and
    its peak memory."""
    found = {}
    for path in sorted(root.rglob("manifest.json")):
        manifest = json.loads(path.read_text())
        manifest.pop("timings_sec", None)
        manifest.pop("peak_rss_mb", None)
        manifest.get("tracker", {}).pop("seconds", None)
        found[path.relative_to(root).as_posix()] = manifest
    return found


def entries_that_differ(a, b, name=""):
    """The dotted names of the entries in which two JSON values differ."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [name or "(the whole file)"]
    return [entry for key in sorted(a.keys() | b.keys())
            for entry in entries_that_differ(a.get(key), b.get(key),
                                             f"{name}.{key}" if name else key)]


def numeric_gap(body_a: bytes, body_b: bytes):
    """(largest absolute, largest relative) difference between the cells
    of two CSV bodies of the same shape, and the names, from the first
    line, of the columns whose cells differ; None when the shapes differ
    or a cell that is not a number differs."""
    rows_a, rows_b = ([line.split(b",") for line in body.splitlines()]
                      for body in (body_a, body_b))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return None
    gap_abs = gap_rel = 0.0
    columns = set()
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return None
            columns.add(j)
            d = abs(x - y)
            if not math.isfinite(d):        # a NaN or an infinity
                d = rel = math.inf
            elif d == 0.0:                  # the same number, spelt apart
                continue
            else:
                rel = d / max(abs(x), abs(y))
            gap_abs, gap_rel = max(gap_abs, d), max(gap_rel, rel)
    names = [rows_a[0][j].decode() for j in sorted(columns)]
    return gap_abs, gap_rel, names


def describe(name: str, body_a: bytes, body_b: bytes) -> str:
    gap = numeric_gap(body_a, body_b)
    if gap is None:
        return f"body differs: {name}"
    return (f"body differs: {name} (max abs diff {gap[0]:.3g}, "
            f"max rel diff {gap[1]:.3g}) in columns {', '.join(gap[2])}")


def only_in(dirs, a: dict, b: dict) -> list:
    """(line, [name]) for each name on one side only."""
    return [(f"only in {dirs[0] if name in a else dirs[1]}: {name}", [name])
            for name in sorted(a.keys() ^ b.keys())]


def read_expected(path: pathlib.Path) -> list:
    """The patterns of an expected-changes list."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="compare_runs.py")
    parser.add_argument("--expected", type=pathlib.Path, metavar="LIST")
    parser.add_argument("dirs", nargs=2, metavar="DIR")
    args = parser.parse_args(argv)
    dirs = args.dirs
    expected = [] if args.expected is None else read_expected(args.expected)
    a, b = (csv_bodies(pathlib.Path(d)) for d in dirs)
    if not a and not b:
        print("no CSV files found", file=sys.stderr)
        return 1
    # (line, the names it reports): a CSV path, a manifest's path or its
    # path and one dotted entry
    differ = only_in(dirs, a, b)
    differ += [(describe(name, a[name], b[name]), [name])
               for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]
    ma, mb = (manifests(pathlib.Path(d)) for d in dirs)
    manifests_differ = only_in(dirs, ma, mb)
    for name in sorted(ma.keys() & mb.keys()):
        if ma[name] != mb[name]:
            entries = entries_that_differ(ma[name], mb[name])
            manifests_differ.append((f"manifest differs: {name} in "
                                     f"{', '.join(entries)}",
                                     [f"{name}:{e}" for e in entries]))
    unexpected, matched = 0, set()
    for line, names in differ + manifests_differ:
        hits = [{pattern for pattern in expected
                 if fnmatch.fnmatchcase(name, pattern)} for name in names]
        matched.update(*hits)
        if all(hits):
            line += " (expected)"
        else:
            unexpected += 1
        print(line)
    stale = [pattern for pattern in expected if pattern not in matched]
    for pattern in stale:
        print(f"listed but unchanged: {pattern}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} CSV files differ")
    if ma or mb:
        print(f"{len(manifests_differ)} of {len(ma.keys() | mb.keys())} "
              "manifests differ")
    if args.expected is not None:
        print(f"{unexpected} of them not in {args.expected}")
        print(f"{len(stale)} of its {len(expected)} lines match no "
              "difference")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

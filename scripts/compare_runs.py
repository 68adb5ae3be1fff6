#!/usr/bin/env python3
"""Compare the CSV bodies of two result trees.

    python3 scripts/compare_runs.py DIR_A DIR_B

Every CSV under either directory (as written by scripts/run_all.sh) is
compared byte for byte below its `#` header lines, which carry the run's
hash and so differ between runs of different code. Exits 0 when every
body is identical, else 1 with the files that differ or exist on one
side only. A body that differs only in numbers, with the same rows and
columns on both sides, is listed with the largest absolute and relative
difference over its cells and the names of the columns whose cells
differ.
"""

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


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: compare_runs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    a, b = (csv_bodies(pathlib.Path(d)) for d in argv)
    if not a and not b:
        print("no CSV files found", file=sys.stderr)
        return 1
    differ = [f"only in {argv[0] if name in a else argv[1]}: {name}"
              for name in sorted(a.keys() ^ b.keys())]
    differ += [describe(name, a[name], b[name])
               for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} CSV files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

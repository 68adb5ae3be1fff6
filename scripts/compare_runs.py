#!/usr/bin/env python3
"""Compare the CSV bodies of two result trees.

    python3 scripts/compare_runs.py DIR_A DIR_B

Every CSV under either directory (as written by scripts/run_all.sh) is
compared byte for byte below its `#` header lines, which carry the run's
hash and so differ between runs of different code. Exits 0 when every
body is identical, else 1 with the files that differ or exist on one
side only.
"""

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
    differ += [f"body differs: {name}" for name in sorted(a.keys() & b.keys())
               if a[name] != b[name]]
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} CSV files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

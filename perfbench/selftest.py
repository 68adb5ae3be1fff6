"""Self-test of the benchmark harness (about 2 minutes on 2 cores).

    python3 perfbench/selftest.py

Checks that
- two traced runs of each workload give exactly the same pde.rhs_calls,
  integrator.accepted_steps, tracker.root_calls and io_utils.bytes_written;
- every metric BENCHMARK.json names is emitted, with the unit it names;
- another seed changes the continuation inputs (its noise-seeded outputs
  differ) but not the outcome of its output checks.
Exits 1 and lists the failures if any check fails.
"""

import json
import os
import sys
import time

import run

EXACT = ("pde.rhs_calls", "integrator.accepted_steps", "tracker.root_calls",
         "io_utils.bytes_written")


def traced(workload, seed):
    return run.iteration(workload, seed, True, time.monotonic() + run.RUN_LIMIT_S)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    for w in run.WORKLOADS:
        a, b = traced(w, 1), traced(w, 1)
        for name in EXACT:
            va, vb = a["layers"][name][0], b["layers"][name][0]
            print(f"{w:18s} {name:26s} {va} {vb}")
            if va != vb:
                failures.append(f"{w}: {name} differs between traced runs ({va} vs {vb})")

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, _ = run.measure("continuation", 1, 1.0, trace)
        for m in spec[key]:
            got = line["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                failures.append(f"{key} metric {m['name']} [{m['unit']}] emitted as {got}")
        extra = set(line["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            failures.append(f"{key}: metrics not in BENCHMARK.json: {sorted(extra)}")

    deadline = time.monotonic() + run.RUN_LIMIT_S
    c1 = run.iteration("continuation", 1, False, deadline)["check"]
    c2 = run.iteration("continuation", 2, False, deadline)["check"]
    print(f"continuation seed 1: {c1}\ncontinuation seed 2: {c2}")
    if c1["fingerprint"] == c2["fingerprint"]:
        failures.append("continuation outputs do not depend on the seed")
    if (c1["failed"], c2["failed"]) != (0, 0):
        failures.append("continuation checks fail for seed 1 or 2")

    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

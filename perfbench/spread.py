"""Repeat the benchmark over consecutive seeds and summarise each
end-to-end metric per workload: median, quartiles and spread, the
distance between the quartiles as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them). With --trace it adds one
traced run per workload for the per-layer values. With --sets 2 it
measures two whole sets, one after the other, and compares them: each
metric's second median over its first, and whether the traced counts
repeat exactly.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace]
                                [--sets 1] [--out FILE] [WORKLOAD ...]

Run from the root of a checkout. Settings come from BENCHMARK.json. A
table with each spread next to a third of the metric's bound goes to
standard error; the summary JSON (the format of perfbench/baseline.json)
goes to --out or standard output.

For each set the summary also holds each run's elapsed time and the time
a full measurement would take at the set's speed: 4 + 22 x (number of
workloads) runs, 22 of each workload plus 4 of the slowest one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# traced counts that must repeat exactly between runs of the same code
EXACT = ("pde.rhs_calls", "integrator.accepted_steps", "tracker.root_calls",
         "io_utils.bytes_written")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    detail, line = (json.loads(s) for s in out.strip().splitlines()[-2:])
    return line, detail


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def measure_set(spec, workloads, runs, first_seed, trace):
    summary = {}
    for w in workloads:
        lines, details = [], []
        for seed in range(first_seed, first_seed + runs):
            line, detail = bench(w, seed, spec["run_seconds"], 0)
            lines.append(line)
            details.append(detail)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                file=sys.stderr)
        entry = {"attempted": sum(x["attempted"] for x in lines),
                 "failed": sum(x["failed"] for x in lines),
                 "correct": all(x["correct"] for x in lines),
                 "run_seconds": spec["run_seconds"], "end_to_end": {},
                 "elapsed_s": [d["elapsed_s"] for d in details],
                 "env": [d["env"] for d in details]}
        for m in spec["end_to_end"]:
            s = summarise([x["metrics"][m["name"]]["value"] for x in lines])
            s["unit"] = m["unit"]
            entry["end_to_end"][m["name"]] = s
            print(f"  {w:18s} {m['name']:12s} median {s['median']:.6g} {m['unit']}"
                  f"  spread {s['spread']:.4f}  (bound/3 {m['bound'] / 3:.4f})",
                  file=sys.stderr)
        if trace:
            line, detail = bench(w, first_seed, spec["run_seconds"], 1)
            entry["per_layer"] = line["metrics"]
            entry["trace_elapsed_s"] = detail["elapsed_s"]
            entry["trace_env"] = detail["env"]
        summary[w] = entry
    return summary


def budget(summary):
    """Seconds a full measurement (4 + 22 runs per workload) would take,
    at the set's median and at its slowest run times."""
    out = {}
    for name, pick in (("median_s", statistics.median), ("slowest_s", max)):
        per_run = {w: pick(e["elapsed_s"]) for w, e in summary.items()}
        out[name] = 22 * sum(per_run.values()) + 4 * max(per_run.values())
    return out


def compare(first, second, spec):
    """Second set's median over the first's, minus 1, per metric, and
    whether the exactly repeating traced counts agree."""
    out = {}
    for w in first:
        entry = {m["name"]: second[w]["end_to_end"][m["name"]]["median"]
                 / first[w]["end_to_end"][m["name"]]["median"] - 1.0
                 for m in spec["end_to_end"]}
        if "per_layer" in first[w]:
            entry["traced_counts_equal"] = all(
                first[w]["per_layer"][n]["value"] == second[w]["per_layer"][n]["value"]
                for n in EXACT)
        out[w] = entry
        print(f"  {w:18s} set 2 vs set 1: " + " ".join(
            f"{k}={v:+.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in entry.items()), file=sys.stderr)
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", help=f"default: all of {names}")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        p.error(f"unknown workloads {sorted(unknown)}")
    sets = []
    for i in range(args.sets):
        print(f"set {i + 1}", file=sys.stderr)
        summary = measure_set(spec, args.workloads or names, args.runs,
                              args.first_seed, args.trace)
        sets.append({"workloads": summary, "budget": budget(summary)})
        print(f"  budget {sets[-1]['budget']}", file=sys.stderr)
    result = {"sets": sets}
    if args.sets == 2:
        result["set_to_set"] = compare(sets[0]["workloads"], sets[1]["workloads"], spec)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()

"""blowup-lab benchmark: end-to-end metrics per workload, or per-layer
metrics from one traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload iteration runs in a fresh
single-threaded subprocess (child.py), one at a time, with a fresh
output directory under .perfbench-work/. With --trace 0 the run first
times the package import in several probe subprocesses (setup_s), then
repeats the workload at least twice, and further while the next
iteration is expected to end within S seconds, and reports medians.
With --trace 1 it runs the workload once untraced and once traced and
reports the per-layer metrics of the traced run next to both wall times.

The last line of standard output is the JSON result; the line before it
holds the samples and the environment they were measured in.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers
from child import CONTINUATION_DIRS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("singularity-track", "continuation")
SETUP_PROBES = 5
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170.0

# Table-1 blow-up times (the acceptance references) of the cells the
# workloads run, and the tolerance criterion 1 applies to them
TABLE1_TC = {(1.0, 0.001): 0.999631, (0.25, 0.1): 0.161963}
TC_TOL = 2e-6
SINGULARITY_Y0_TOL = 0.03
CONTINUATION_RTOL = 1e-6


class BenchError(Exception):
    pass


def spawn(workload, seed, trace, deadline, run_id=""):
    """One child run; returns its result.json with setup_s added, and the
    path of its output directory (the caller removes it)."""
    os.makedirs(WORK, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    spec = {"workload": workload, "seed": seed, "out": out, "trace": trace,
            "run_id": run_id}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                            cwd=out, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} child exceeded the run's time limit")
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                             + err.decode(errors="replace")[-4000:])
        with open(os.path.join(out, "result.json")) as fh:
            result = json.load(fh)
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)
        raise
    result["setup_s"] = result["t_ready"] - t_spawn
    return result, out


# ---------------------------------------------------------------------------
# output checks: each returns the counts behind `attempted`/`failed`
# (commands) and behind ok_frac (the workload's operation as the metric
# defines it), plus the largest |t_c - Table 1| of its commands. A command
# whose t_c is more than TC_TOL from Table 1 fails.


def _read_csv(path):
    with open(path) as fh:
        header = json.loads(fh.readline()[1:])
        rows = list(csv.DictReader(fh))
    return header, rows


def check_singularity_track(outputs, out):
    alpha, eps = 1.0, 0.001
    path = os.path.join(out, "singularity", "singularity_track.csv")
    if outputs["exit"][0] != 0 or not os.path.exists(path):
        return {"attempted": 1, "failed": 1, "ops": 1, "ops_failed": 1,
                "tc_err": None, "fingerprint": ""}
    header, rows = _read_csv(path)
    tc_err = abs(header["t_c"] - TABLE1_TC[(alpha, eps)])
    y0, y0_ref = float(rows[0]["y_root"]), math.acosh(alpha / eps)
    ok = tc_err <= TC_TOL and abs(y0 - y0_ref) <= SINGULARITY_Y0_TOL * y0_ref
    no_root = sum(1 for r in rows if r["usable_root"] != "1")
    return {"attempted": 1, "failed": 0 if ok else 1, "ops": len(rows),
            "ops_failed": no_root if ok else len(rows), "tc_err": tc_err,
            "fingerprint": ""}


def _close(a, b):
    return abs(a - b) <= CONTINUATION_RTOL * max(abs(a), abs(b))


def check_continuation(outputs, out):
    manifests = []
    for name in CONTINUATION_DIRS:
        path = os.path.join(out, name, "manifest.json")
        if os.path.exists(path):
            with open(path) as fh:
                manifests.append(json.load(fh))
        else:
            manifests.append(None)
    ok = [code == 0 and m is not None and bool(m["outputs"])
          for code, m in zip(outputs["exit"], manifests)]
    seeded, complex_path, snapshots = manifests
    # t_c of each command: the two `continue` manifests, the snapshots CSV header
    tcs = [m["continuation"]["t_c"] if good else None
           for good, m in zip(ok[:2], (seeded, complex_path))]
    tcs.append(None)
    if ok[2]:
        entry = snapshots["outputs"]["coefficient_snapshots"]
        tcs[2] = _read_csv(os.path.join(out, CONTINUATION_DIRS[2], entry["path"]))[0]["t_c"]
    errs = [None if tc is None else abs(tc - TABLE1_TC[(0.25, 0.1)]) for tc in tcs]
    ok = [good and err <= TC_TOL for good, err in zip(ok, errs)]
    if ok[0] and ok[1]:
        a, b = seeded["continuation"], complex_path["continuation"]
        ok[1] = (_close(a["t_c"], b["t_c"])
                 and _close(a["asymptote_deviation_at_t_end"],
                            b["asymptote_deviation_at_t_end"]))
    # the noise-seeded outputs, which a different seed must change
    fingerprint = hashlib.sha256("".join(
        e["sha256"] for m in (seeded, snapshots) if m
        for _, e in sorted(m["outputs"].items())).encode()).hexdigest()[:16]
    bad = ok.count(False)
    return {"attempted": 3, "failed": bad, "ops": 3, "ops_failed": bad,
            "tc_err": max((e for e in errs if e is not None), default=None),
            "fingerprint": fingerprint}


CHECKS = {"singularity-track": check_singularity_track,
          "continuation": check_continuation}


def iteration(workload, seed, trace, deadline, run_id=""):
    """Run and check one workload iteration; with trace, add the
    per-layer metrics of its spans."""
    result, out = spawn(workload, seed, trace, deadline, run_id)
    try:
        result["check"] = CHECKS[workload](result["outputs"], out)
        if trace:
            with open(os.path.join(out, "spans.json")) as fh:
                result["layers"] = layers.per_layer(json.load(fh))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, detail line)."""
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "commit": _git_commit(), "loadavg_start": _loadavg()}
    runs = []
    if trace:
        plain = iteration(workload, seed, False, deadline)
        traced = iteration(workload, seed, True, deadline,
                           run_id=f"{workload}-seed{seed}-traced")
        runs = [plain, traced]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        check = traced["check"]
        metrics["pde.tc_max_abs_err"] = {"value": check["tc_err"], "unit": "t"}
        metrics["fail_frac"] = {"value": check["ops_failed"] / check["ops"], "unit": "frac"}
        metrics["trace.untraced_wall_s"] = {"value": plain["wall_s"], "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": traced["wall_s"] / plain["wall_s"] - 1.0, "unit": "frac"}
        samples = {"wall_s": [plain["wall_s"], traced["wall_s"]]}
        versions = traced["versions"]
    else:
        setups = []
        for i in range(SETUP_PROBES + 1):  # the first warms bytecode and file caches
            result, out = spawn("probe", seed, False, deadline)
            shutil.rmtree(out, ignore_errors=True)
            if i:
                setups.append(result["setup_s"])
        versions = result["versions"]
        t0 = time.monotonic()
        while True:
            t_it = time.monotonic()
            runs.append(iteration(workload, seed, False, deadline))
            now = time.monotonic()
            expected_end = now + (now - t_it)
            if len(runs) >= MIN_ITERATIONS and expected_end > t0 + seconds:
                break
        samples = {"wall_s": [r["wall_s"] for r in runs],
                   "cpu_s": [r["cpu_s"] for r in runs],
                   "setup_s": setups + [r["setup_s"] for r in runs],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
        ops = sum(r["check"]["ops"] for r in runs)
        ops_failed = sum(r["check"]["ops_failed"] for r in runs)
        metrics = {name: {"value": statistics.median(v),
                          "unit": "MB" if name == "peak_rss_mb" else "s"}
                   for name, v in samples.items()}
        metrics["ok_frac"] = {"value": (ops - ops_failed) / ops, "unit": "frac"}
    attempted = sum(r["check"]["attempted"] for r in runs)
    failed = sum(r["check"]["failed"] for r in runs)
    env.update(versions, loadavg_end=_loadavg())
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "samples": samples, "n_samples": {k: len(v) for k, v in samples.items()},
              "tc_max_abs_err": max((r["check"]["tc_err"] for r in runs
                                     if r["check"]["tc_err"] is not None), default=None),
              "fingerprints": [r["check"]["fingerprint"] for r in runs],
              "elapsed_s": time.monotonic() - t_start, "env": env}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "blowup_lab", "__init__.py")):
        print(f"no blowup_lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        line, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

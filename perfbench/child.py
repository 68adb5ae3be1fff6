"""Body of one benchmark subprocess: import the package, run one
workload into a fresh output directory, and write result.json there.

    python3 perfbench/child.py '<json spec>'

The spec holds "workload", "seed", "out", "trace" and "run_id"; the
workload "probe" only imports the package and reports when it was ready.
Everything the parent needs comes back through files in "out"; standard
output belongs to the CLI commands the workload runs.
"""

import json
import os
import platform
import resource
import sys
import time


def _import_package():
    import blowup_lab
    from blowup_lab import cli, experiments, pde  # noqa: F401
    import numpy
    import scipy

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(blowup_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"blowup_lab imported from {blowup_lab.__file__}, not {src}")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blowup_lab": blowup_lab.__version__}


def singularity_track(seed, out):
    """`singularity` at the make_figure_data.sh parameters."""
    from blowup_lab import cli
    code = cli.main(["singularity", "--alpha", "1", "--epsilon", "0.001",
                     "--seed", str(seed), "--out", os.path.join(out, "singularity")])
    return {"exit": [code]}


CONTINUATION_DIRS = ("continue_seeded", "continue_complex", "snapshots")


def continuation(seed, out):
    """The three commands of make_continuation_data.sh, seeded by `seed`."""
    from blowup_lab import cli
    a = ["--alpha", "0.25", "--epsilon", "0.1"]
    d = [os.path.join(out, name) for name in CONTINUATION_DIRS]
    codes = [
        cli.main(["continue", *a, "--t-end", "0.5", "--seed", str(seed), "--out", d[0]]),
        cli.main(["continue", *a, "--t-end", "0.5", "--method", "complex_path",
                  "--out", d[1]]),
        cli.main(["snapshots", *a, "--seed", str(seed), "--out", d[2]]),
    ]
    return {"exit": codes}


WORKLOADS = {
    "singularity-track": singularity_track,
    "continuation": continuation,
}


def main():
    spec = json.loads(sys.argv[1])
    versions = _import_package()
    result = {"t_ready": time.monotonic(), "versions": versions}
    if spec["workload"] != "probe":
        tracer = None
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.Tracer(spec["run_id"])
            tracer.install()
        t0 = time.monotonic()
        result["outputs"] = WORKLOADS[spec["workload"]](spec["seed"], spec["out"])
        result["wall_s"] = time.monotonic() - t0
        if tracer is not None:
            tracer.write(os.path.join(spec["out"], "spans.json"))
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = ru.ru_utime + ru.ru_stime
    result["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    with open(os.path.join(spec["out"], "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

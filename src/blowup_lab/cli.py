"""Command-line harness: reproduces the blow-up time table and all
figure datasets as self-describing CSV files plus a JSON run manifest.

    blowup-lab <table1|solve|errors|profile|singularity|continue|
                snapshots|flatness> [options]

Exit codes: 0 success, 1 fatal, 2 partial (some cells failed) or a
usage error that argparse refuses (an unknown option or choice).
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

import numpy as np

from . import experiments
from .integrator import IntegratorConfig
from .io_utils import RunManifest, verify_manifest, write_csv
from .pde import ModelParams, blowup_estimates, solve_to_blowup


_DEFAULTS = {"alpha": 1.0, "epsilon": 0.01, "n_modes": 128,
             "rtol": 1e-12, "atol": 1e-12, "seed": 0}
# keys only some commands take; the rest keep the common config (and so
# their CSV headers and config hashes) unchanged
_COMMAND_DEFAULTS = {
    "continue": {"t_end": None, "method": "noise_seeded", "times": []},
    "snapshots": {"times": None},
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blowup-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("table1", "3x3 grid of blow-up times and estimate errors"),
        ("solve", "single solve to blow-up with report"),
        ("errors", "max relative errors of the two approximations over time"),
        ("profile", "blow-up profile and coefficient decay at t_c"),
        ("singularity", "singularity track plus asymptotic overlays"),
        ("continue", "post-blow-up continuation snapshots"),
        ("snapshots", "coefficient decay before/at/after t_c"),
        ("flatness", "flatness f(t) against its approximation"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        for key, value in _DEFAULTS.items():   # --alpha, --n-modes, ...
            sp.add_argument("--" + key.replace("_", "-"), type=type(value))
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--verify", action="store_true",
                        help="verify the manifest in --out instead of running")
        if name == "continue":
            sp.add_argument("--t-end", type=float)
            sp.add_argument("--method",
                            choices=experiments.CONTINUATION_METHODS)
        if name in ("continue", "snapshots"):
            sp.add_argument("--times", type=float, nargs="*")
        sp.set_defaults(**_DEFAULTS, **_COMMAND_DEFAULTS.get(name, {}))
    return p


def _config(args) -> dict:
    """The run's config: every parsed option but where the run writes."""
    return {k: v for k, v in vars(args).items() if k not in ("out", "verify")}


def _params(cfg) -> ModelParams:
    return ModelParams(alpha=cfg["alpha"], epsilon=cfg["epsilon"],
                       n_modes=cfg["n_modes"],
                       integrator=IntegratorConfig(rtol=cfg["rtol"],
                                                   atol=cfg["atol"]))


def _integrator_block(integrations: dict) -> dict:
    """Manifest record of each integration: steps, rejections,
    evaluations and the range of accepted step sizes."""
    return {name: stats.record() for name, stats in integrations.items()}


def _table(args, manifest, name, columns, rows, **header) -> None:
    """Write <out>/<name>.csv under the run's header, with the header
    keys given, and register it in the manifest as name."""
    path = os.path.join(args.out, f"{name}.csv")
    write_csv(path, columns, rows, manifest.csv_header(**header))
    manifest.register(name, path)


def _coefficient_rows(c):
    """(k, Re c_k, Im c_k) for k = -N..N."""
    n = c.shape[-1] // 2
    return zip(range(-n, n + 1), c.real, c.imag)


class _Phases:
    """Wall time of a command's consecutive phases: lap(name) records, in
    the manifest's timings, the time since the previous lap (or since
    the phases began)."""

    def __init__(self, manifest):
        self.timings = manifest.timings
        self.last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.timings[name] = now - self.last
        self.last = now


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verify:
        manifest = os.path.join(args.out, "manifest.json")
        if not os.path.exists(manifest):
            print(f"no manifest at {manifest}", file=sys.stderr)
            return 1
        problems = verify_manifest(manifest)
        for pr in problems:
            print(pr, file=sys.stderr)
        print("verify: OK" if not problems else "verify: FAILED")
        return 0 if not problems else 1
    try:
        cfg = _config(args)
        os.makedirs(args.out, exist_ok=True)
        manifest = RunManifest(args.out, cfg)
        t0 = time.perf_counter()
        code = _DISPATCH[args.command](args, cfg, manifest)
        manifest.timings["total"] = time.perf_counter() - t0
        # the process's high-water mark so far (Linux counts it in KiB)
        manifest.extra["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        manifest.write()
        return code
    except Exception as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


def _cmd_table1(args, cfg, manifest) -> int:
    phases = _Phases(manifest)
    rows = experiments.run_table1(n_modes=cfg["n_modes"], rtol=cfg["rtol"],
                                  atol=cfg["atol"])
    phases.lap("cells")
    _table(args, manifest, "table1",
           ["alpha", "epsilon", "t_c", "tc_prime_minus_tc", "t_hat_minus_tc",
            "t_tilde_minus_tc", "error"],
           [(r.alpha, r.epsilon, r.t_c, r.d_two_mode, r.d_t_hat, r.d_t_tilde,
             r.error or "") for r in rows])
    phases.lap("write")
    # a failed cell's entry is empty: its integrations are lost with it
    manifest.extra["integrator"] = {
        f"alpha={r.alpha:g},epsilon={r.epsilon:g}":
            _integrator_block(r.integrations) for r in rows}
    failed = sum(1 for r in rows if r.error)
    for r in rows:
        status = f"FAILED ({r.error})" if r.error else f"t_c = {r.t_c:.6f}"
        print(f"alpha={r.alpha:<5g} eps={r.epsilon:<6g} {status}")
    return 2 if 0 < failed < len(rows) else (1 if failed == len(rows) else 0)


def _cmd_solve(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    solve = solve_to_blowup(params)
    t_c = solve.times[-1]
    phases.lap("solve")
    est, two_mode = blowup_estimates(params)
    phases.lap("estimates")
    # the blow-up solve's states are real: no imaginary parts to write
    _table(args, manifest, "solution_summary", ["t", "v_at_0"],
           [(t, float(np.sum(state)))
            for t, state in zip(solve.times, solve.states)])
    _table(args, manifest, "state_at_tc", ["k", "re_c_k"],
           enumerate(solve.states[-1], -params.n_modes), t=t_c)
    phases.lap("write")
    deltas = {f"{name} - t_c": t - t_c for name, t in est.items()}
    manifest.extra["blowup_report"] = {"t_c": t_c, **est, "deltas": deltas}
    manifest.extra["integrator"] = _integrator_block(
        {"solve": solve.stats, **two_mode})
    print(f"t_c = {t_c:.6f}  (t_hat - t_c = {deltas['t_hat - t_c']:.2e}, "
          f"t_tilde - t_c = {deltas['t_tilde - t_c']:.2e}, "
          f"t_c' - t_c = {deltas['t_c_prime - t_c']:.2e})")
    return 0


def _sample_counts(data) -> dict:
    """Manifest record of a dataset read on the sample grid: how many
    grid times it has a row for, and why the others have none."""
    return {"grid_times": int(experiments.sample_times(data.t_c).size),
            "kept": int(data.times.size), "dropped": data.dropped}


def _cmd_errors(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    if params.epsilon == 0.0:
        raise ValueError("errors needs epsilon > 0: the second-timescale "
                         "approximation takes log(epsilon)")
    solve = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.error_curves_from_solution(solve, params)
    phases.lap("postprocess")
    _table(args, manifest, "error_curves",
           ["t", "err_perturbation", "err_timescale2"],
           zip(data.times, data.err_perturbation, data.err_timescale2),
           t_c=data.t_c)
    phases.lap("write")
    manifest.extra["samples"] = _sample_counts(data)
    manifest.extra["integrator"] = _integrator_block({"solve": solve.stats})
    print(f"{len(data.times)} samples, t_c = {data.t_c:.6f}")
    return 0


def _cmd_profile(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    if params.epsilon == 0.0:
        raise ValueError("profile needs epsilon > 0: the global blow-up "
                         "profile takes log(epsilon)")
    solve = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.profile_from_state(solve.states[-1], solve.times[-1],
                                          params)
    phases.lap("postprocess")
    columns = ["x", "v_solver", "profile_global", "profile_local"]
    _table(args, manifest, "blowup_profile", columns,
           zip(data.x, data.v_solver, data.eq_global, data.eq_local),
           t_c=data.t_c)
    _table(args, manifest, "blowup_profile_smallx", columns,
           zip(data.x_small, data.v_small, data.eq_global_small,
               data.eq_local_small),
           t_c=data.t_c, note="v from coefficient sums; roundoff limits "
                              "accuracy for small x")
    _table(args, manifest, "coefficients_at_tc",
           ["k", "abs_c_k", "global_law", "local_law"],
           zip(data.k, data.coeff_solver, data.coeff_global_law,
               data.coeff_local_law),
           t_c=data.t_c)
    phases.lap("write")
    roundoff = int(np.sum(np.abs(data.v_small) <= data.v_roundoff))
    manifest.extra["profile"] = {"v_roundoff": data.v_roundoff,
                                 "smallx_roundoff_rows": roundoff}
    manifest.extra["integrator"] = _integrator_block({"solve": solve.stats})
    print(f"profile written, t_c = {data.t_c:.6f}")
    return 0


def _cmd_singularity(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    solve = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.singularity_from_solution(solve, params)
    phases.lap("postprocess")
    tr = data.track
    _table(args, manifest, "singularity_track",
           ["t", "y_fit", "y_root", "fit_residual", "usable_fit",
            "usable_root"] + [f"overlay_{k}" for k in data.overlays],
           zip(tr.times, tr.y_fit, tr.y_root, tr.fit_residual,
               tr.usable_fit().astype(int), tr.usable_root().astype(int),
               *data.overlays.values()),
           t_c=data.t_c)
    phases.lap("write")
    n_ok = int(np.sum(tr.usable_root()))
    manifest.extra["overlays"] = {
        regime: {"kept": int(np.sum(np.isfinite(data.overlays[regime]))),
                 "dropped": reasons}
        for regime, reasons in data.dropped.items()}
    manifest.extra["tracker"] = {
        "snapshots": int(tr.times.size),
        "usable_root": n_ok,
        "usable_fit": int(np.sum(tr.usable_fit())),
        "no_root": tr.no_root,
        "no_fit": tr.no_fit,
        "seconds": tr.seconds,
    }
    manifest.extra["integrator"] = _integrator_block({"solve": solve.stats})
    print(f"track with {tr.times.size} samples ({n_ok} usable roots), "
          f"t_c = {data.t_c:.6f}")
    return 0


def _cmd_continue(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    data = experiments.run_continuation(
        params, cfg["t_end"], rng_seed=cfg["seed"], extra_times=cfg["times"],
        method=cfg["method"])
    phases.lap("compute")
    label = experiments.time_label
    for t, c in zip(data.snapshot_times, data.snapshots):
        _table(args, manifest, f"snapshot_t{label(t)}",
               ["k", "re_c_k", "im_c_k"], _coefficient_rows(c), t=t)
    phases.lap("write")
    manifest.extra["continuation"] = {
        "t_c": data.t_c,
        "branch_sign": data.branch_sign,
        "method": data.method,
        "radius": data.radius,
        "u_edge_moduli": {label(t): v for t, v in data.u_edge_moduli.items()},
        "asymptote_deviation_at_t_end": data.asymptote_deviation,
        "skipped_times": {label(t): why
                          for t, why in data.skipped_times.items()},
    }
    manifest.extra["integrator"] = _integrator_block(data.integrations)
    print(f"continued past t_c = {data.t_c:.6f}, branch "
          f"{data.branch_sign:+d}, |u+1/t|*t at end = "
          f"{data.asymptote_deviation}")
    return 0


def _cmd_snapshots(args, cfg, manifest) -> int:
    phases = _Phases(manifest)
    data = experiments.run_fourier_snapshots(_params(cfg), times=cfg["times"])
    phases.lap("compute")
    _table(args, manifest, "coefficient_snapshots",
           ["k"] + [f"abs_c_k_t{experiments.time_label(t)}"
                    for t in data.times] + ["local_law"],
           zip(data.k, *data.moduli, data.local_law), t_c=data.t_c)
    phases.lap("write")
    manifest.extra["integrator"] = _integrator_block(data.integrations)
    print(f"snapshots at {[round(t, 6) for t in data.times]}")
    return 0


def _cmd_flatness(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    solve = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.flatness_from_solution(solve, params)
    phases.lap("postprocess")
    _table(args, manifest, "flatness",
           ["t", "f_solver", "f_approx", "rel_err"],
           zip(data.times, data.f_solver, data.f_approx, data.rel_err),
           t_c=data.t_c)
    phases.lap("write")
    manifest.extra["samples"] = {**_sample_counts(data),
                                 "nan_rel_err": data.nan_rel_err}
    manifest.extra["integrator"] = _integrator_block({"solve": solve.stats})
    print(f"{data.times.size} samples, t_c = {data.t_c:.6f}")
    return 0


_DISPATCH = {
    "table1": _cmd_table1,
    "solve": _cmd_solve,
    "errors": _cmd_errors,
    "profile": _cmd_profile,
    "singularity": _cmd_singularity,
    "continue": _cmd_continue,
    "snapshots": _cmd_snapshots,
    "flatness": _cmd_flatness,
}


if __name__ == "__main__":
    sys.exit(main())

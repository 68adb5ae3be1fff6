"""Command-line harness: reproduces the blow-up time table and all
figure datasets as self-describing CSV files plus a JSON run manifest.

    blowup-lab <table1|solve|errors|profile|singularity|continue|
                snapshots|flatness> [options]

Exit codes: 0 success, 2 partial (some cells failed), 1 fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, experiments
from .integrator import IntegratorConfig
from .io_utils import RunManifest, verify_manifest, write_csv
from .pde import ModelParams, blowup_estimates, solve_to_blowup


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blowup-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        # None defaults so a config file can fill in unset flags
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--epsilon", type=float, default=None)
        sp.add_argument("--n-modes", type=int, default=None)
        sp.add_argument("--rtol", type=float, default=None)
        sp.add_argument("--atol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--config", help="JSON config file; flags win")
        sp.add_argument("--verify", action="store_true",
                        help="verify the manifest in --out instead of running")

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
        common(sp)
        if name == "continue":
            sp.add_argument("--t-end", type=float, default=None)
            sp.add_argument("--method", default=None,
                            choices=experiments.CONTINUATION_METHODS)
            sp.add_argument("--times", type=float, nargs="*", default=None)
        if name == "snapshots":
            sp.add_argument("--times", type=float, nargs="*", default=None)
    return p


_DEFAULTS = {"alpha": 1.0, "epsilon": 0.01, "n_modes": 128,
             "rtol": 1e-12, "atol": 1e-12, "seed": 0}
# keys only some commands take; the rest keep the common config (and so
# their CSV headers and config hashes) unchanged
_COMMAND_DEFAULTS = {
    "continue": {"t_end": None, "method": "noise_seeded", "times": []},
    "snapshots": {"times": None},
}


def _load_config(args) -> dict:
    defaults = {**_DEFAULTS, **_COMMAND_DEFAULTS.get(args.command, {})}
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: "
                             + ", ".join(unknown))
    cfg = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        cfg[key] = flag if flag is not None else file_cfg.get(key, default)
    cfg["command"] = args.command
    return cfg


def _params(cfg) -> ModelParams:
    return ModelParams(alpha=cfg["alpha"], epsilon=cfg["epsilon"],
                       n_modes=cfg["n_modes"],
                       integrator=IntegratorConfig(rtol=cfg["rtol"],
                                                   atol=cfg["atol"]))


def _integrator_block(integrations: dict) -> dict:
    """Manifest record of each integration: steps, rejections,
    evaluations and the range of accepted step sizes."""
    return {name: stats.record() for name, stats in integrations.items()}


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
        cfg = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        manifest = RunManifest(args.out, cfg, rng_seed=cfg.get("seed"),
                               tool_version=__version__)
        t0 = time.perf_counter()
        code = _DISPATCH[args.command](args, cfg, manifest)
        manifest.timings["total"] = time.perf_counter() - t0
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
    path = os.path.join(args.out, "table1.csv")
    write_csv(path,
              ["alpha", "epsilon", "t_c", "tc_prime_minus_tc",
               "t_hat_minus_tc", "t_tilde_minus_tc", "error"],
              [(r.alpha, r.epsilon, r.t_c, r.d_two_mode, r.d_t_hat,
                r.d_t_tilde, r.error or "") for r in rows],
              manifest.csv_header())
    manifest.register("table1", path)
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
    traj, rep = solve_to_blowup(params)
    phases.lap("solve")
    est, two_mode = blowup_estimates(params)
    phases.lap("estimates")
    summary_path = os.path.join(args.out, "solution_summary.csv")
    rows = []
    for t, state in zip(traj.times, traj.states):
        rows.append((t, float(np.sum(state).real),
                     float(np.max(np.abs(np.imag(state))))))
    write_csv(summary_path, ["t", "v_at_0", "max_abs_im_coeff"], rows,
              manifest.csv_header())
    manifest.register("solution_summary", summary_path)
    snap_path = os.path.join(args.out, "state_at_tc.csv")
    n = params.n_modes
    write_csv(snap_path, ["k", "re_c_k", "im_c_k"],
              [(int(k), c.real, c.imag) for k, c in
               zip(range(-n, n + 1), rep.state_at_tc.coeffs)],
              manifest.csv_header(t=rep.t_c))
    manifest.register("state_at_tc", snap_path)
    phases.lap("write")
    deltas = {f"{name} - t_c": t - rep.t_c for name, t in est.items()}
    manifest.extra["blowup_report"] = {"t_c": rep.t_c, **est, "deltas": deltas}
    manifest.extra["integrator"] = _integrator_block(
        {**rep.integrations, **two_mode})
    print(f"t_c = {rep.t_c:.6f}  (t_hat - t_c = {deltas['t_hat - t_c']:.2e}, "
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
    traj, rep = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.error_curves_from_solution(traj, rep.t_c, params)
    phases.lap("postprocess")
    path = os.path.join(args.out, "error_curves.csv")
    write_csv(path, ["t", "err_perturbation", "err_timescale2"],
              zip(data.times, data.err_perturbation, data.err_timescale2),
              manifest.csv_header(t_c=data.t_c))
    manifest.register("error_curves", path)
    phases.lap("write")
    manifest.extra["samples"] = _sample_counts(data)
    manifest.extra["integrator"] = _integrator_block(rep.integrations)
    print(f"{len(data.times)} samples, t_c = {data.t_c:.6f}")
    return 0


def _cmd_profile(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    if params.epsilon == 0.0:
        raise ValueError("profile needs epsilon > 0: the global blow-up "
                         "profile takes log(epsilon)")
    _, rep = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.profile_from_state(rep.state_at_tc, rep.t_c, params)
    phases.lap("postprocess")
    path = os.path.join(args.out, "blowup_profile.csv")
    write_csv(path, ["x", "v_solver", "profile_global", "profile_local"],
              zip(data.x, data.v_solver, data.eq_global, data.eq_local),
              manifest.csv_header(t_c=data.t_c))
    manifest.register("blowup_profile", path)
    small = os.path.join(args.out, "blowup_profile_smallx.csv")
    write_csv(small, ["x", "v_solver", "profile_global", "profile_local"],
              zip(data.x_small, data.v_small, data.eq_global_small,
                  data.eq_local_small),
              manifest.csv_header(t_c=data.t_c,
                                  note="v from coefficient sums; roundoff "
                                       "limits accuracy for small x"))
    manifest.register("blowup_profile_smallx", small)
    cpath = os.path.join(args.out, "coefficients_at_tc.csv")
    write_csv(cpath, ["k", "abs_c_k", "global_law", "local_law"],
              zip(data.k, data.coeff_solver, data.coeff_global_law,
                  data.coeff_local_law),
              manifest.csv_header(t_c=data.t_c))
    manifest.register("coefficients_at_tc", cpath)
    phases.lap("write")
    manifest.extra["integrator"] = _integrator_block(rep.integrations)
    print(f"profile written, t_c = {data.t_c:.6f}")
    return 0


def _cmd_singularity(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    traj, rep = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.singularity_from_solution(traj, rep.t_c, params)
    phases.lap("postprocess")
    tr = data.track
    path = os.path.join(args.out, "singularity_track.csv")
    cols = ["t", "y_fit", "y_root", "fit_residual", "usable_fit",
            "usable_root"] + [f"overlay_{k}" for k in data.overlays]
    rows = []
    for i in range(tr.times.size):
        row = [tr.times[i], tr.y_fit[i], tr.y_root[i], tr.fit_residual[i],
               int(np.isfinite(tr.y_fit[i])), int(np.isfinite(tr.y_root[i]))]
        row += [data.overlays[k][i] for k in data.overlays]
        rows.append(row)
    write_csv(path, cols, rows, manifest.csv_header(t_c=data.t_c))
    manifest.register("singularity_track", path)
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
    }
    manifest.extra["integrator"] = _integrator_block(rep.integrations)
    print(f"track with {tr.times.size} samples ({n_ok} usable roots), "
          f"t_c = {data.t_c:.6f}")
    return 0


def _cmd_continue(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    data = experiments.run_continuation(
        params, cfg["t_end"], rng_seed=cfg["seed"], extra_times=cfg["times"],
        method=cfg["method"])
    phases.lap("compute")
    n = params.n_modes
    for t, fld in zip(data.snapshot_times, data.snapshots):
        path = os.path.join(args.out, f"snapshot_t{t:.6f}.csv")
        write_csv(path, ["k", "re_c_k", "im_c_k"],
                  [(int(k), c.real, c.imag) for k, c in
                   zip(range(-n, n + 1), fld.coeffs)],
                  manifest.csv_header(t=t))
        manifest.register(f"snapshot_t{t:.6f}", path)
    phases.lap("write")
    manifest.extra["continuation"] = {
        "t_c": data.result.t_c,
        "branch_sign": data.result.branch_sign,
        "method": data.result.method,
        "u_edge_moduli": {f"{t:.6f}": v for t, v in data.u_edge_moduli.items()},
        "asymptote_deviation_at_t_end": data.asymptote_deviation,
        "skipped_times": {f"{t:.6f}": why
                          for t, why in data.skipped_times.items()},
    }
    manifest.extra["integrator"] = _integrator_block(data.integrations)
    print(f"continued past t_c = {data.result.t_c:.6f}, branch "
          f"{data.result.branch_sign:+d}, |u+1/t|*t at end = "
          f"{data.asymptote_deviation}")
    return 0


def _cmd_snapshots(args, cfg, manifest) -> int:
    phases = _Phases(manifest)
    data = experiments.run_fourier_snapshots(_params(cfg), times=cfg["times"],
                                             rng_seed=cfg["seed"])
    phases.lap("compute")
    path = os.path.join(args.out, "coefficient_snapshots.csv")
    cols = ["k"] + [f"abs_c_k_t{t:.6f}" for t in data.times] + ["local_law"]
    rows = []
    for i, k in enumerate(data.k):
        rows.append([int(k)] + [m[i] for m in data.moduli] + [data.local_law[i]])
    write_csv(path, cols, rows, manifest.csv_header(t_c=data.t_c))
    manifest.register("coefficient_snapshots", path)
    phases.lap("write")
    manifest.extra["integrator"] = _integrator_block(data.integrations)
    print(f"snapshots at {[round(t, 6) for t in data.times]}")
    return 0


def _cmd_flatness(args, cfg, manifest) -> int:
    params, phases = _params(cfg), _Phases(manifest)
    traj, rep = solve_to_blowup(params)
    phases.lap("solve")
    data = experiments.flatness_from_solution(traj, rep.t_c, params)
    phases.lap("postprocess")
    path = os.path.join(args.out, "flatness.csv")
    write_csv(path, ["t", "f_solver", "f_approx", "rel_err"],
              zip(data.times, data.f_solver, data.f_approx, data.rel_err),
              manifest.csv_header(t_c=data.t_c))
    manifest.register("flatness", path)
    phases.lap("write")
    manifest.extra["samples"] = {**_sample_counts(data),
                                 "nan_rel_err": data.nan_rel_err}
    manifest.extra["integrator"] = _integrator_block(rep.integrations)
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

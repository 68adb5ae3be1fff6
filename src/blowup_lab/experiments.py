"""Dataset assembly behind the CLI subcommands.

Each builder returns plain data structures, from a blow-up solve the
caller passes or from the solves it runs itself; the CLI layer handles
argument parsing, timing and persistence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import asymptotics, tracker
from .integrator import IntegratorConfig, Trajectory
from .pde import (ModelParams, blowup_estimates, branch_sign,
                  continue_complex_path, continue_past_blowup, flatness,
                  solve_to_blowup, u_from_v)
from .spectral import (HORNER_ROUNDOFF, grid_points, horner, node_shift,
                       padded_size, synthesize)

TABLE1_ALPHAS = (0.25, 1.0, 4.0)
TABLE1_EPSILONS = (0.1, 0.01, 0.001)
CONTINUATION_METHODS = ("noise_seeded", "complex_path")
DETOUR_RADIUS = 0.1    # of the complex-time detour about t_c, over t_c
# intervals of the profile's uniform x grid on [-pi, pi]
PROFILE_POINTS = 1024

# the sampled datasets (error curves, singularity track, flatness) read
# the dense output on one grid in [0, t_c): GRID_UNIFORM points uniform
# in t, plus GRID_APPROACH points log-spaced in t_c - t over
# GRID_APPROACH_SPAN (fractions of t_c) to resolve the approach
GRID_UNIFORM = 2000
GRID_APPROACH = 500
GRID_APPROACH_SPAN = (1e-1, 1e-8)


def sample_times(t_c: float) -> np.ndarray:
    """The sorted sample grid in [0, t_c)."""
    lo, hi = np.log10(GRID_APPROACH_SPAN)
    uniform = t_c * np.arange(GRID_UNIFORM) / GRID_UNIFORM
    approach = t_c - t_c * np.logspace(lo, hi, GRID_APPROACH)
    return np.unique(np.concatenate([uniform, approach]))


@dataclass
class Table1Row:
    alpha: float
    epsilon: float
    t_c: float
    d_two_mode: float
    d_t_hat: float
    d_t_tilde: float
    error: Optional[str] = None
    # name -> IntegratorStats of each integration behind the row
    integrations: dict = field(default_factory=dict)


def _table1_cell(alpha: float, epsilon: float, n_modes: int, rtol: float,
                 atol: float) -> Table1Row:
    try:
        params = ModelParams(alpha=alpha, epsilon=epsilon, n_modes=n_modes,
                             integrator=IntegratorConfig(rtol=rtol, atol=atol))
        solve = solve_to_blowup(params)
        t_c = solve.times[-1]
        est, two_mode = blowup_estimates(params)
        return Table1Row(alpha, epsilon, t_c, est["t_c_prime"] - t_c,
                         est["t_hat"] - t_c, est["t_tilde"] - t_c,
                         integrations={"solve": solve.stats, **two_mode})
    except Exception as exc:  # per-cell failures reported per-row
        return Table1Row(alpha, epsilon, math.nan, math.nan, math.nan,
                         math.nan, error=str(exc))


def run_table1(n_modes: int, rtol: float, atol: float) -> list[Table1Row]:
    return [_table1_cell(a, e, n_modes, rtol, atol)
            for a in TABLE1_ALPHAS for e in TABLE1_EPSILONS]


@dataclass
class ErrorCurves:
    times: np.ndarray
    err_perturbation: np.ndarray    # first-timescale approximation
    err_timescale2: np.ndarray      # second-timescale approximation
    t_c: float
    dropped: dict                   # reason -> grid times without a row


def error_curves_from_solution(solve: Trajectory,
                               params: ModelParams) -> ErrorCurves:
    """At each time of the sample grid, the max relative error over the
    collocation grid of the two analytic approximations against the
    solver of an already-computed blow-up solve, in blocks of times."""
    a, e, t_c = params.alpha, params.epsilon, solve.times[-1]
    m = padded_size(params.n_modes)
    x = grid_points(m)
    times = sample_times(t_c)

    def block_errors(t, states):
        """Both errors of each row, NaN where v = 0 on the grid: its own
        function, so that its arrays go before the next block is read."""
        v_ref = synthesize(states, m).real
        denom = np.abs(v_ref)
        denom[np.min(denom, axis=1) <= 0.0] = np.nan
        return [np.max(np.abs(v - v_ref) / denom, axis=1) for v in (
            asymptotics.perturbation_v(x, t, a, e),
            asymptotics.v_timescale2(x, t, a, e, t_c))]
    errs = np.empty((2, times.size))
    for rows, states in solve.state_blocks(times):
        errs[:, rows] = block_errors(times[rows, None], states)
    kept = ~np.isnan(errs[0])
    zero = times.size - np.count_nonzero(kept)
    return ErrorCurves(times[kept], *errs[:, kept], t_c,
                       {"v = 0 on the grid": zero} if zero else {})


@dataclass
class BlowupProfileData:
    x: np.ndarray
    v_solver: np.ndarray
    eq_global: np.ndarray
    eq_local: np.ndarray            # NaN outside |x| < 1
    k: np.ndarray
    coeff_solver: np.ndarray
    coeff_global_law: np.ndarray
    coeff_local_law: np.ndarray
    t_c: float
    x_small: np.ndarray
    v_small: np.ndarray
    eq_global_small: np.ndarray
    eq_local_small: np.ndarray
    v_roundoff: float               # |v| at or below it is roundoff


def profile_from_solution(solve: Trajectory,
                          params: ModelParams) -> BlowupProfileData:
    """Profile data from an already-computed solve's state c_k at t_c."""
    c, t_c = solve.states[-1], solve.times[-1]
    x = np.linspace(-np.pi, np.pi, PROFILE_POINTS + 1)
    x = x[x != 0.0]
    # small-x panel on a logarithmic lattice: near x = 0, v is a sum of
    # terms far larger than itself, and v_roundoff bounds its roundoff
    x_small = np.logspace(-7, -1, 61)
    # v at both, by Horner's rule in w = e^{ix} and 1/w = conj(w)
    n, w = params.n_modes, np.exp(1j * np.r_[x, x_small])
    v = horner(c[n:n + 1], np.stack([c[n + 1:], c[n - 1::-1]])[:, None],
               np.stack([w, w.conj()])[:, None])[0].real
    v_solver, v_small = v[:x.size], v[x.size:]
    eq20 = asymptotics.blowup_profile_global(x, params.alpha, params.epsilon)
    eq22 = np.full_like(x, np.nan)
    inner = np.abs(x) < 1.0
    eq22[inner] = asymptotics.blowup_profile_local(x[inner], params.alpha,
                                                   params.epsilon)
    k = np.arange(3, n + 1)
    coeff = np.abs(c[n + 3:])
    law_g = asymptotics.coeff_decay_global(k, params.alpha, params.epsilon)
    law_l = asymptotics.coeff_decay_local(k)
    eq20_s = asymptotics.blowup_profile_global(x_small, params.alpha,
                                               params.epsilon)
    eq22_s = asymptotics.blowup_profile_local(x_small, params.alpha,
                                              params.epsilon)
    return BlowupProfileData(x, v_solver, eq20, eq22, k, coeff, law_g, law_l,
                             t_c, x_small, v_small, eq20_s, eq22_s,
                             HORNER_ROUNDOFF * float(np.sum(np.abs(c))))


@dataclass
class SingularityData:
    track: tracker.SingularityTrack
    t_c: float
    overlays: dict
    dropped: dict                   # regime -> reason -> times without a value


def singularity_from_solution(solve: Trajectory,
                              params: ModelParams) -> SingularityData:
    """Singularity track and overlays from an already-computed solve, on
    the sample grid."""
    a, e, t_c = params.alpha, params.epsilon, solve.times[-1]
    track = tracker.build_track(solve, sample_times(t_c))
    overlays, dropped = {}, {}
    for regime in asymptotics.SINGULARITY_REGIMES:
        overlays[regime], reason = asymptotics.singularity_y(
            regime, track.times, a, e, t_c)
        outside = int(np.count_nonzero(np.isnan(overlays[regime])))
        dropped[regime] = {reason: outside} if outside else {}
    return SingularityData(track, t_c, overlays, dropped)


FIG6_FACTORS = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0)


def time_label(t: float) -> str:
    """A snapshot time as file names, CSV columns and manifest keys
    print it."""
    return f"{t + 0.0:.6f}"     # -0.0 + 0.0 is 0.0: no sign for t = 0


def _refuse_times(command: str, times: Sequence[float],
                  t_end: Optional[float] = None) -> None:
    """Refuse a time that is not finite, below 0 or, when t_end is given,
    past it, and two times with the same label: one snapshot would
    overwrite the other."""
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"{command}: --times {t} is not finite")
        if t < 0.0:
            raise ValueError(f"{command}: --times {t} is before t = 0")
        if t_end is not None and not t <= t_end:
            raise ValueError(f"{command}: --times {t} outside "
                             f"[0, t_end = {t_end}]")
    ordered = sorted(times)
    for a, b in zip(ordered, ordered[1:]):
        if time_label(a) == time_label(b):
            raise ValueError(f"{command}: times {a!r} and {b!r} both print "
                             f"as {time_label(a)}; give times that differ "
                             "in their first 6 decimals")


@dataclass
class ContinuationData:
    method: str                      # noise_seeded | complex_path
    t_c: float
    radius: float                    # the run leaves the solve at t_c - radius
    branch_sign: int                 # pde.branch_sign at t_c + radius
    snapshot_times: list
    snapshots: list                  # the coefficient array at each time
    u_edge_moduli: dict              # time -> |u(pi, t)|
    asymptote_deviation: float       # max_x |u + 1/t| * t at t_end
    skipped_times: dict              # time -> why it has no snapshot
    integrations: dict               # name -> IntegratorStats


def run_continuation(params: ModelParams, t_end: Optional[float],
                     rng_seed: int, extra_times: Sequence[float],
                     method: str) -> ContinuationData:
    """Continue past t_c to t_end (3 t_c when None) and sample snapshots
    at the Figure-6 multiples of t_c and at extra_times, which must lie
    in [0, t_end].  Both methods leave the blow-up solve at t_c - r,
    r = 0.1 t_c or t_end - t_c where that is less."""
    if method not in CONTINUATION_METHODS:
        raise ValueError(f"unknown method {method!r}; one of "
                         + ", ".join(CONTINUATION_METHODS))
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"continue: --t-end {t_end} is not finite")
    _refuse_times("continue", extra_times, t_end)
    solve = solve_to_blowup(params)
    t_c = solve.times[-1]
    if t_end is None:
        t_end = 3.0 * t_c
        _refuse_times("continue", extra_times, t_end)
    elif not t_end > t_c:
        raise ValueError(f"continue: --t-end {t_end} is not past "
                         f"t_c = {t_c}")
    times = sorted({round(f * t_c, 12) for f in FIG6_FACTORS
                    if f * t_c <= t_end} | set(extra_times))
    _refuse_times("continue", times)     # clashes with the Figure-6 times
    # the complex path's detour ends at or before t_end (t_end - t_c is exact)
    radius = min(DETOUR_RADIUS * t_c, t_end - t_c)
    if method == "noise_seeded":
        run = continue_past_blowup(params, solve, t_end, radius, rng_seed,
                                   times)
    else:
        run = continue_complex_path(params, solve, t_end, radius, times)
    sign = branch_sign(run.state_at(t_c + radius))
    kept, snaps, edges, skipped = [], [], {}, {}
    for t in times:
        if t <= t_c - radius:
            state = solve.state_at(t)
        elif t < run.times[0]:
            skipped[t] = ("inside the complex-time detour (t_c - r, t_c + r), "
                          "where the path leaves the real axis")
            continue
        else:
            state = run.state_at(t)
        kept.append(t)
        snaps.append(state)
        edges[t] = abs(1.0 / np.sum(state * node_shift(params.n_modes)))
    u_vals, _, (failed,) = u_from_v(run.state_at(t_end))
    if failed:
        raise failed
    dev = float(np.max(np.abs(u_vals + 1.0 / t_end)) * t_end)
    return ContinuationData(method, t_c, radius, sign, kept, snaps, edges,
                            dev, skipped,
                            {"solve": solve.stats, method: run.stats})


@dataclass
class FlatnessData:
    times: np.ndarray
    f_solver: np.ndarray
    f_approx: np.ndarray
    rel_err: np.ndarray
    t_c: float
    dropped: dict                   # reason -> grid times without a row
    nan_rel_err: dict               # reason -> rows whose rel_err is NaN


def flatness_from_solution(solve: Trajectory,
                           params: ModelParams) -> FlatnessData:
    """Flatness curve from an already-computed solve, on the sample
    grid, a block of times at a time."""
    a, e, t_c = params.alpha, params.epsilon, solve.times[-1]
    grid = sample_times(t_c)
    times = grid[grid < a]
    f, why = np.empty(times.size), []
    for rows, states in solve.state_blocks(times):
        f[rows], reasons = flatness(states)
        why += reasons
    dropped = Counter(reason for reason in why if reason is not None)
    if times.size < grid.size:
        dropped["t >= alpha"] = grid.size - times.size
    kept = ~np.isnan(f)
    times, f = times[kept], f[kept]
    approx = asymptotics.flatness_approx(times, a, e)
    rel_err = np.abs(approx - f) / np.where(f == 0.0, np.nan, np.abs(f))
    zero = int(np.count_nonzero(f == 0.0))
    return FlatnessData(times, f, approx, rel_err, t_c, dict(dropped),
                        {"f_solver = 0": zero} if zero else {})


@dataclass
class CoeffSnapshotData:
    times: list
    k: np.ndarray
    moduli: list                     # |c_k| arrays, one per time
    local_law: np.ndarray
    t_c: float
    integrations: dict               # name -> IntegratorStats


def run_fourier_snapshots(params: ModelParams, times: Optional[Sequence[float]]
                          ) -> CoeffSnapshotData:
    """Coefficient decay at the times, by default just before, at, and
    just after t_c (times None): up to t_c from the blow-up solve, past
    it from the complex path that leaves it, whose detour about t_c ends
    at or before the first time past t_c."""
    if times is not None and not len(times):
        raise ValueError("snapshots: times is empty; give at least one "
                         "time or omit it for the defaults")
    _refuse_times("snapshots", times or ())
    solve = solve_to_blowup(params)
    t_c, integrations = solve.times[-1], {"solve": solve.stats}
    if times is None:
        times = [0.9 * t_c, t_c, 1.1 * t_c]
        _refuse_times("snapshots", times)
    later = [t for t in times if t > t_c]
    if later:
        radius = min(DETOUR_RADIUS * t_c, min(later) - t_c)
        path = continue_complex_path(params, solve, max(later), radius,
                                     later)
        integrations["complex_path"] = path.stats
    n = params.n_modes
    k = np.arange(1, n + 1)
    moduli = [np.abs((solve if t <= t_c else path).state_at(t)[n + 1:])
              for t in times]
    local = np.full(k.shape, np.nan)
    local[k >= 3] = asymptotics.coeff_decay_local(k[k >= 3])
    return CoeffSnapshotData(list(times), k, moduli, local, t_c,
                             integrations)

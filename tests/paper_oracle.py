"""Closed forms and fits from the paper that the tests check the solver
against: the initial coefficients of u = 1/v, the flatness minimum, the
impingement regression, the Taylor two-mode system and its first integral,
the Fourier two-mode run to b = a, and the near-blow-up forms of both.
No command writes these; they serve as oracles only.
"""

import math

import numpy as np

from blowup_lab import reduced
from blowup_lab.integrator import (EventSpec, StiffnessOrSingularity,
                                   Trajectory, integrate)


class TooFewSamples(Exception):
    """An impingement regression without the samples it needs."""


def turning_time(alpha):
    """Flattening-to-steepening switch at t ~ alpha - 2 (only if alpha > 2)."""
    return alpha - 2.0 if alpha > 2.0 else None


def minimal_flatness(alpha, epsilon):
    """f(alpha - 2) ~ eps*e^{2-alpha}/2, defined when alpha > 2."""
    if alpha <= 2.0:
        return None
    return 0.5 * epsilon * math.exp(2.0 - alpha)


def u_initial_coeff(k, alpha, epsilon):
    """Exact initial Fourier coefficient of u = 1/(alpha - eps*cos x)
    (residue-theorem closed form)."""
    if epsilon == 0.0:
        return 1.0 / alpha if k == 0 else 0.0
    r = alpha / epsilon
    root = math.sqrt(r ** 2 - 1.0)
    rho = r + root
    return rho ** (-abs(k)) / (epsilon * root)


def impingement_regression(d, y):
    """Slope of y^2 against d log(1/d), d = t_c - t.

    The strip width closes like y^2 ~ 8 d log(1/d), but only once
    log(1/d) dominates the linear term (2 e^alpha / epsilon) d of the
    preceding regime, i.e. for log(1/d) >> e^alpha / (4 epsilon).  The
    regression recovers 8 only when evaluated in that regime.
    """
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if d.size < 4:
        raise TooFewSamples("too few samples for the impingement regression")
    return float(np.polyfit(d * np.log(1.0 / d), y ** 2, 1)[0])


def impingement_slope(track, t_c, epsilon):
    """Impingement regression of the root track on the terminal window
    t in [t_c - 10 eps, t_c - eps/10]."""
    t, y = track.times, track.y_root
    mask = ((t >= t_c - 10.0 * epsilon) & (t <= t_c - 0.1 * epsilon)
            & np.isfinite(y))
    if np.count_nonzero(mask) < 4:
        raise TooFewSamples("too few usable samples in the impingement window")
    return impingement_regression(t_c - t[mask], y[mask])


def taylor_two_mode_rhs(y, t):
    """Taylor truncation v ~ a + b x^2: da/dt = 2b - 1, db/dt = -8 b^2/a."""
    a, b = y[0].real, y[1].real
    # allow a < 0 so the stepper can straddle the a = 0 event;
    # only the genuine division singularity is floored
    if abs(a) < 1e-14:
        return np.array([np.nan, np.nan], dtype=complex)
    return np.array([2.0 * b - 1.0, -8.0 * b * b / a], dtype=complex)


def solve_taylor_two_mode(alpha, epsilon, cfg):
    """The Taylor system from (alpha, epsilon) to its blow-up a = 0: the
    trajectory and the time, pinned by step-size collapse (b' -> -inf)."""
    y0 = np.array([alpha, epsilon], dtype=complex)
    event = EventSpec(lambda y: float(y[0].real), direction="decreasing",
                      root_tol=1e-13)
    try:
        traj = integrate(taylor_two_mode_rhs, y0, 0.0, 3.0 * alpha + 1.0,
                         cfg, events=[event])
    except StiffnessOrSingularity as exc:
        return exc.trajectory, float(exc.t)
    return traj, traj.times[-1]


def fourier_ansatz_blowup(alpha, epsilon, cfg):
    """The Fourier two-mode run to the ansatz blow-up b = a (r = 1), read
    in t with states (a, b), and the crossing time."""
    y0 = np.array([math.log(alpha), epsilon / alpha, 0.0])
    event = EventSpec(lambda y: float(1.0 - y[1]),
                      direction="decreasing", root_tol=1e-13)
    traj = integrate(reduced._field, y0, 0.0, 100.0, cfg, events=[event])
    return Trajectory(times=[y[2] for y in traj.states],
                      states=[math.exp(y[0]) * np.array([1.0, y[1]])
                              for y in traj.states]), traj.states[-1][2]


def taylor_conserved_quantity(a, b):
    """First integral of the Taylor system da/dt = 2b - 1,
    db/dt = -8 b^2 / a: 2 log b + 1/b + 8 log a, for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("requires a > 0 and b > 0")
    return 2.0 * math.log(b) + 1.0 / b + 8.0 * math.log(a)


def near_blowup_forms(kind, trajectory, t_c):
    """Fit the near-blow-up constant by matching at the last pre-event
    sample whose event observable lies in [1e-4, 1e-3]; returns the
    constant and the sample's time.

    Fourier: a ~ a_c + (1 + 2 a_c)(t_c - t), b ~ a_c(1 - (t_c - t)),
    fitted via the b-relation.  Taylor: a ~ t_c - t,
    b ~ 1/(8(-log(t_c - t) + b_c)).
    """
    lo, hi = 1e-4, 1e-3
    sample = None
    for t, y in zip(trajectory.times, trajectory.states):
        a, b = y[0].real, y[1].real
        if lo <= ((a - b) if kind == "fourier" else a) <= hi:
            sample = (t, b)
    if sample is None:
        raise ValueError(f"no trajectory sample with event observable in "
                         f"[{lo}, {hi}]")
    t_s, b_s = sample
    d = t_c - t_s
    if kind == "fourier":
        return b_s / (1.0 - d), t_s
    return 1.0 / (8.0 * b_s) + math.log(d), t_s

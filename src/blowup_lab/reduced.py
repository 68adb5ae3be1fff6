"""Two-mode truncations of the reciprocal heat equation as planar ODEs.

Fourier kind: v ~ a(t) - b(t)*cos x, blow-up when the trajectory hits
b = a.  Taylor kind: v ~ a(t) + b(t)*x^2, blow-up when a = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import (EventSpec, IntegratorConfig, StiffnessOrSingularity,
                         Trajectory, integrate)

_DENOM_FLOOR = 1e-14


@dataclass(frozen=True)
class TwoModeState:
    a: float
    b: float


def fourier_two_mode_rhs(state: TwoModeState) -> tuple[float, float]:
    """da/dt = (2ab^2 + 2a^2 - b^2)/(b^2 - 2a^2),
    db/dt = b(2a^2 - 3b^2)/(b^2 - 2a^2)."""
    a, b = state.a, state.b
    den = b * b - 2.0 * a * a
    if abs(den) < _DENOM_FLOOR:
        raise ZeroDivisionError("b^2 - 2a^2 vanishes (outside 0 < b < a)")
    da = (2.0 * a * b * b + 2.0 * a * a - b * b) / den
    db = b * (2.0 * a * a - 3.0 * b * b) / den
    return da, db


def taylor_two_mode_rhs(state: TwoModeState) -> tuple[float, float]:
    """da/dt = 2b - 1, db/dt = -8 b^2 / a."""
    a, b = state.a, state.b
    if a <= 0.0:
        raise ZeroDivisionError("requires a > 0")
    return 2.0 * b - 1.0, -8.0 * b * b / a


def _rhs_vec(kind: str):
    if kind == "fourier":
        def rhs(y, t):
            try:
                da, db = fourier_two_mode_rhs(TwoModeState(y[0].real, y[1].real))
            except ZeroDivisionError:
                return np.array([np.nan, np.nan], dtype=complex)
            return np.array([da, db], dtype=complex)
    elif kind == "taylor":
        def rhs(y, t):
            a, b = y[0].real, y[1].real
            # allow a < 0 so the stepper can straddle the a = 0 event;
            # only the genuine division singularity is floored
            if abs(a) < _DENOM_FLOOR:
                return np.array([np.nan, np.nan], dtype=complex)
            return np.array([2.0 * b - 1.0, -8.0 * b * b / a], dtype=complex)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return rhs


def _event(kind: str, root_tol: float) -> EventSpec:
    if kind == "fourier":
        # blow-up of the ansatz at x = 0 is v(0) = a - b = 0
        return EventSpec(lambda y: float((y[0] - y[1]).real),
                         direction="decreasing", root_tol=root_tol)
    return EventSpec(lambda y: float(y[0].real),
                     direction="decreasing", root_tol=root_tol)


@dataclass(frozen=True)
class TwoModeRun:
    """Full record of a two-mode integration.

    t_event is the ansatz blow-up time (the b = a crossing for the
    Fourier kind, a = 0 for the Taylor kind).  t_c_prime is the blow-up
    time of the ODE system itself.  For the Taylor kind the two
    coincide.  For the Fourier kind the trajectory crosses b = a with
    finite slope and only breaks down later, when it runs into the
    denominator singularity b^2 = 2a^2; that breakdown time is what the
    tabulated two-mode estimate corresponds to, so t_c_prime reports it.
    """
    trajectory: Trajectory
    t_event: float
    t_c_prime: float


def solve_two_mode_run(kind: str, alpha: float, epsilon: float,
                       cfg: Optional[IntegratorConfig] = None,
                       root_tol: float = 1e-13) -> TwoModeRun:
    """Integrate from (a, b)(0) = (alpha, epsilon) through blow-up."""
    if cfg is None:
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-12, h_init=1e-4)
    rhs = _rhs_vec(kind)
    y0 = np.array([alpha, epsilon], dtype=complex)
    t_hi = 3.0 * alpha + 1.0
    try:
        traj, hit = integrate(rhs, y0, 0.0, t_hi, cfg,
                              events=[_event(kind, root_tol)])
    except StiffnessOrSingularity as exc:
        # Taylor kind: b carries a logarithmic singularity at the blow-up
        # time (db/dt -> -inf as a -> 0), so no step can straddle a = 0;
        # the step-size collapse itself pins the blow-up time.
        if kind == "taylor" and exc.trajectory is not None:
            return TwoModeRun(exc.trajectory, float(exc.t), float(exc.t))
        raise
    if hit is None:
        raise RuntimeError(f"{kind} two-mode system did not reach its event")
    if kind == "taylor":
        return TwoModeRun(traj, hit.t, hit.t)
    # continue past v(0) = a - b = 0 until the system's own finite-time
    # singularity; the step size collapses there, pinning its location
    try:
        integrate(rhs, hit.state, hit.t, t_hi, cfg, stats=traj.stats)
    except StiffnessOrSingularity as exc:
        tail = exc.trajectory
        if tail is not None:
            traj.times.extend(tail.times[1:])
            traj.states.extend(tail.states[1:])
            traj.dense_segments.extend(tail.dense_segments)
        return TwoModeRun(traj, hit.t, float(exc.t))
    raise RuntimeError("fourier two-mode system did not break down past b = a")


def solve_two_mode(kind: str, alpha: float, epsilon: float,
                   cfg: Optional[IntegratorConfig] = None,
                   root_tol: float = 1e-13) -> tuple[Trajectory, float]:
    """Trajectory and blow-up time t_c' of the two-mode system."""
    run = solve_two_mode_run(kind, alpha, epsilon, cfg, root_tol)
    return run.trajectory, run.t_c_prime


def taylor_conserved_quantity(state: TwoModeState) -> float:
    """First integral of the Taylor system: 2 log b + 1/b + 8 log a.

    (Derived by direct differentiation against the system; constant
    along trajectories with a, b > 0.)
    """
    a, b = state.a, state.b
    if a <= 0.0 or b <= 0.0:
        raise ValueError("requires a > 0 and b > 0")
    return 2.0 * math.log(b) + 1.0 / b + 8.0 * math.log(a)


@dataclass(frozen=True)
class NearBlowupFit:
    kind: str
    t_c: float
    fitted_constant: float      # a_c (fourier) or b_c (taylor)
    t_sample: float

    def a_of_t(self, t):
        d = self.t_c - np.asarray(t, dtype=float)
        if self.kind == "fourier":
            return self.fitted_constant + (1.0 + 2.0 * self.fitted_constant) * d
        return d

    def b_of_t(self, t):
        d = self.t_c - np.asarray(t, dtype=float)
        if self.kind == "fourier":
            return self.fitted_constant * (1.0 - d)
        return 1.0 / (8.0 * (-np.log(d) + self.fitted_constant))


def near_blowup_forms(kind: str, trajectory: Trajectory, t_c: float,
                      window: tuple[float, float] = (1e-4, 1e-3)) -> NearBlowupFit:
    """Fit the near-blow-up constant by matching at the last pre-event
    sample whose event observable lies in the given window.

    Fourier: a ~ a_c + (1 + 2 a_c)(t_c - t), b ~ a_c(1 - (t_c - t)),
    fitted via the b-relation.  Taylor: a ~ t_c - t,
    b ~ 1/(8(-log(t_c - t) + b_c)).
    """
    lo, hi = window
    sample = None
    for t, y in zip(trajectory.times, trajectory.states):
        a, b = y[0].real, y[1].real
        obs = (a - b) if kind == "fourier" else a
        if lo <= obs <= hi:
            sample = (t, a, b)
    if sample is None:
        raise ValueError(
            f"no trajectory sample with event observable in [{lo}, {hi}]; "
            "fit attempted too far from the event")
    t_s, a_s, b_s = sample
    d = t_c - t_s
    if kind == "fourier":
        const = b_s / (1.0 - d)
    elif kind == "taylor":
        const = 1.0 / (8.0 * b_s) + math.log(d)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return NearBlowupFit(kind=kind, t_c=t_c, fitted_constant=const, t_sample=t_s)

"""Two-mode truncations of the reciprocal heat equation as planar ODEs.

Fourier kind: v ~ a(t) - b(t)*cos x, blow-up when the trajectory hits
b = a.  Taylor kind: v ~ a(t) + b(t)*x^2, blow-up when a = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import (EventSpec, IntegratorConfig, StiffnessOrSingularity,
                         Trajectory, integrate)

_DENOM_FLOOR = 1e-14
_EVENT_ROOT_TOL = 1e-13


def _rhs_vec(kind: str):
    if kind == "fourier":
        def rhs(y, t):
            # da/dt = (2ab^2 + 2a^2 - b^2)/(b^2 - 2a^2),
            # db/dt = b(2a^2 - 3b^2)/(b^2 - 2a^2)
            a, b = y[0].real, y[1].real
            den = b * b - 2.0 * a * a
            if abs(den) < _DENOM_FLOOR:
                return np.array([np.nan, np.nan], dtype=complex)
            return np.array([(2.0 * a * b * b + 2.0 * a * a - b * b) / den,
                             b * (2.0 * a * a - 3.0 * b * b) / den],
                            dtype=complex)
    elif kind == "taylor":
        def rhs(y, t):
            # da/dt = 2b - 1, db/dt = -8 b^2 / a
            a, b = y[0].real, y[1].real
            # allow a < 0 so the stepper can straddle the a = 0 event;
            # only the genuine division singularity is floored
            if abs(a) < _DENOM_FLOOR:
                return np.array([np.nan, np.nan], dtype=complex)
            return np.array([2.0 * b - 1.0, -8.0 * b * b / a], dtype=complex)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return rhs


def _event(kind: str) -> EventSpec:
    if kind == "fourier":
        # blow-up of the ansatz at x = 0 is v(0) = a - b = 0
        return EventSpec(lambda y: float((y[0] - y[1]).real),
                         direction="decreasing", root_tol=_EVENT_ROOT_TOL)
    return EventSpec(lambda y: float(y[0].real),
                     direction="decreasing", root_tol=_EVENT_ROOT_TOL)


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


def solve_two_mode(kind: str, alpha: float, epsilon: float,
                   cfg: IntegratorConfig) -> TwoModeRun:
    """Integrate from (a, b)(0) = (alpha, epsilon) through blow-up."""
    rhs = _rhs_vec(kind)
    y0 = np.array([alpha, epsilon], dtype=complex)
    t_hi = 3.0 * alpha + 1.0
    try:
        traj, hit = integrate(rhs, y0, 0.0, t_hi, cfg,
                              events=[_event(kind)])
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


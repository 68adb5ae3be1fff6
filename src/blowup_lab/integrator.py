"""Adaptive embedded Runge-Kutta 5(4) over complex state vectors.

Dormand-Prince coefficients with a PI step-size controller, a
4th-order dense-output interpolant, sign-change event location on the
dense output, and integration along piecewise-smooth paths in the
complex time plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [np.array(row) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
# dense-output weights (Hairer, Norsett & Wanner)
_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])
_E = _B5 - _B4   # weights of the embedded error estimate

RHS = Callable[[np.ndarray, complex], np.ndarray]
Observable = Callable[[np.ndarray], float]


class IntegrationError(Exception):
    pass


class StiffnessOrSingularity(IntegrationError):
    """Step size underflow; carries the last accepted time and state."""

    def __init__(self, t, y, message="step size underflow"):
        self.t = t
        self.y = np.array(y)
        self.trajectory = None  # filled by integrate() with the partial path
        super().__init__(f"{message} at t = {t}")


class MaxStepsExceeded(IntegrationError):
    def __init__(self, t, y):
        self.t = t
        self.y = np.array(y)
        self.trajectory = None  # filled by integrate() with the partial path
        super().__init__(f"max_steps exceeded at t = {t}")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-12
    atol: float = 1e-12
    h_init: float = 1e-4
    h_min: float = 1e-14
    h_max: float = np.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if not (self.h_min <= self.h_init <= self.h_max):
            raise ValueError("require h_min <= h_init <= h_max")


@dataclass(frozen=True)
class EventSpec:
    observable: Observable
    direction: str = "any"          # any | decreasing | increasing
    root_tol: float = 1e-13


@dataclass(frozen=True)
class EventHit:
    t: float
    state: np.ndarray
    event_index: int


@dataclass
class DenseSegment:
    """Quartic interpolant over one accepted step [t0, t0 + h]."""

    t0: float
    h: float
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray
    r5: np.ndarray

    def eval(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        return self.r1 + theta * (
            self.r2 + (1.0 - theta) * (
                self.r3 + theta * (self.r4 + (1.0 - theta) * self.r5)))


@dataclass
class IntegratorStats:
    """What one integration did: steps, rejections and evaluations."""

    accepted: int = 0
    rejected_error: int = 0          # error norm above 1
    rejected_nonfinite: int = 0      # a stage's rhs was NaN or infinite
    rhs_calls: int = 0
    event_evals: int = 0             # observable calls while locating a root

    def __add__(self, other: "IntegratorStats") -> "IntegratorStats":
        return IntegratorStats(**{k: getattr(self, k) + getattr(other, k)
                                  for k in vars(self)})


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    dense_segments: list = field(default_factory=list)
    # for path integration: complex time t(s) at each stored parameter value
    path_times: Optional[list] = None
    stats: IntegratorStats = field(default_factory=IntegratorStats)

    def append(self, t, y, segment=None):
        """Store y itself, read-only: dense segments share it as r1."""
        y.flags.writeable = False
        self.times.append(t)
        self.states.append(y)
        if segment is not None:
            self.dense_segments.append(segment)

    def state_at(self, t: float) -> np.ndarray:
        """Dense-output evaluation at any time inside the covered span."""
        if not self.dense_segments:
            raise IntegrationError("no dense segments stored")
        for seg in self.dense_segments:
            if seg.t0 <= t <= seg.t0 + seg.h or seg.t0 + seg.h <= t <= seg.t0:
                return seg.eval(t)
        # clamp to endpoints
        if abs(t - self.times[0]) <= 1e-12 * max(1.0, abs(t)):
            return self.states[0]
        if abs(t - self.times[-1]) <= 1e-12 * max(1.0, abs(t)):
            return self.states[-1]
        raise IntegrationError(f"t = {t} outside integrated span")


def _error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _combine(w, k):
    """sum_j w_j k_j, added in order j = 0, 1, ... from +0.0 (the order
    of the builtin sum, so every bit matches it)."""
    return np.add.reduce(w[:, None] * k, axis=0, initial=0.0)


def _attempt_step(rhs, t, y, h, k1):
    """One DOPRI5 step.  Returns (y5, err, k, ok), k the (7, n) stages;
    ok=False on non-finite rhs."""
    k = np.empty((7, y.size), dtype=complex)
    k[0] = k1
    for i in range(1, 7):
        ki = rhs(y + h * _combine(_A[i], k[:i]), t + _C[i] * h)
        if not np.all(np.isfinite(ki)):
            return None, None, None, False
        k[i] = ki
    y5 = y + h * _combine(_B5, k)
    err = h * _combine(_E, k)
    return y5, err, k, True


def _dense_segment(t, h, y, y_new, k):
    ydiff = y_new - y
    bspl = h * k[0] - ydiff
    r5 = h * _combine(_D, k)
    return DenseSegment(t, h, y, ydiff, bspl, ydiff - h * k[6] - bspl, r5)


def _check_event(ev: EventSpec, g0: float, g1: float) -> bool:
    if g0 == 0.0:
        return False  # already at a root; fire only on genuine crossing
    crossed = (g0 < 0.0 <= g1) or (g0 > 0.0 >= g1)
    if not crossed:
        return False
    if ev.direction == "decreasing":
        return g0 > 0.0
    if ev.direction == "increasing":
        return g0 < 0.0
    return True


def integrate(rhs: RHS, y0, t0: float, t1: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              events: Sequence[EventSpec] = ()) -> tuple[Trajectory, Optional[EventHit]]:
    """Integrate y' = rhs(y, t) from t0 to t1 (t1 > t0).

    Stops early at the first located event root; every accepted step is
    stored in the trajectory together with its dense-output segment, and
    the trajectory's stats count what the stepper did.
    """
    y = np.array(y0, dtype=complex, ndmin=1)
    traj = Trajectory()
    traj.append(t0, y)
    stats = traj.stats

    # degenerate: observable already at a root at t0
    for idx, ev in enumerate(events):
        if abs(ev.observable(y)) <= ev.root_tol:
            return traj, EventHit(t0, y, idx)

    def counted_rhs(yy, tt):
        stats.rhs_calls += 1
        return rhs(yy, tt)

    g_prev = [ev.observable(y) for ev in events]
    k1 = counted_rhs(y, t0)
    if not np.all(np.isfinite(k1)):
        raise IntegrationError(f"rhs non-finite at t0 = {t0}")

    t = t0
    h = min(cfg.h_init, cfg.h_max, t1 - t0)
    err_prev = 1.0
    safety, min_fac, max_fac = 0.9, 0.2, 5.0

    for _ in range(cfg.max_steps):
        if t >= t1:
            return traj, None
        h = min(h, t1 - t)
        y_new, err_vec, k, ok = _attempt_step(counted_rhs, t, y, h, k1)
        if not ok:
            stats.rejected_nonfinite += 1
            h *= 0.5
            if h < cfg.h_min:
                exc = StiffnessOrSingularity(t, y, "rhs non-finite, step underflow")
                exc.trajectory = traj
                raise exc
            continue
        err = _error_norm(err_vec, y, y_new, cfg.atol, cfg.rtol)
        if err <= 1.0:
            stats.accepted += 1
            seg = _dense_segment(t, h, y, y_new, k)
            hit = None
            for idx, ev in enumerate(events):
                g_new = ev.observable(y_new)
                if _check_event(ev, g_prev[idx], g_new):
                    t_star, root = brentq(
                        lambda tt: ev.observable(seg.eval(tt)),
                        t, t + h, xtol=ev.root_tol, full_output=True)
                    stats.event_evals += root.function_calls
                    hit = EventHit(t_star, seg.eval(t_star), idx)
                    break
                g_prev[idx] = g_new
            if hit is not None:
                traj.append(hit.t, hit.state, seg)
                return traj, hit
            t = t + h
            y = y_new
            k1 = k[6]  # FSAL
            traj.append(t, y, seg)
            # PI controller
            fac = safety * err ** -0.14 * err_prev ** 0.08 if err > 0 else max_fac
            h = min(h * min(max_fac, max(min_fac, fac)), cfg.h_max)
            err_prev = max(err, 1e-10)
        else:
            stats.rejected_error += 1
            fac = safety * err ** -0.2
            h *= min(1.0, max(min_fac, fac))
        if h < cfg.h_min:
            exc = StiffnessOrSingularity(t, y)
            exc.trajectory = traj
            raise exc
    exc = MaxStepsExceeded(t, y)
    exc.trajectory = traj
    raise exc


def integrate_fixed(rhs: RHS, y0, t0: float, t1: float, h: float) -> np.ndarray:
    """Fixed-step DOPRI5 propagation (validation harness)."""
    y = np.atleast_1d(np.asarray(y0, dtype=complex))
    n = int(round((t1 - t0) / h))
    t = t0
    for _ in range(n):
        k1 = rhs(y, t)
        y, _, _, ok = _attempt_step(rhs, t, y, h, k1)
        if not ok:
            raise IntegrationError(f"rhs non-finite at t = {t}")
        t += h
    return y


def order_check(rhs: RHS, y0, t0: float, t1: float,
                exact: Callable[[float], np.ndarray],
                h_values: Sequence[float]) -> float:
    """Observed convergence order: least-squares slope of log err vs log h."""
    errs = []
    for h in h_values:
        yh = integrate_fixed(rhs, y0, t0, t1, h)
        errs.append(np.max(np.abs(yh - np.atleast_1d(exact(t1)))))
    slope = np.polyfit(np.log(np.asarray(h_values, dtype=float)),
                       np.log(np.asarray(errs)), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class PathSegment:
    """Smooth piece of a complex-t path, parameterized by s in [0, 1]."""

    t_of_s: Callable[[float], complex]
    dt_ds: Callable[[float], complex]


def line_segment(t_start: complex, t_end: complex) -> PathSegment:
    return PathSegment(lambda s: t_start + s * (t_end - t_start),
                       lambda s: t_end - t_start)


def semicircle(center: complex, radius: float, upper: bool = True) -> PathSegment:
    """Half circle from center - radius to center + radius.

    upper=True detours through Im t > 0.
    """
    sgn = 1.0 if upper else -1.0

    def t_of_s(s):
        ang = np.pi * (1.0 - s)
        return center + radius * np.exp(sgn * 1j * ang)

    def dt_ds(s):
        ang = np.pi * (1.0 - s)
        return -sgn * 1j * np.pi * radius * np.exp(sgn * 1j * ang)

    return PathSegment(t_of_s, dt_ds)


def integrate_path(rhs: RHS, y0, path: Sequence[PathSegment],
                   cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate dy/ds = rhs(y, t(s)) * dt/ds along the concatenated path.

    Leg j runs over s in [j, j + 1]: times and dense segments are in this
    global s, and path_times holds t(s) at each stored state.
    """
    out = Trajectory(path_times=[])
    y = y0
    for j, seg in enumerate(path):
        def rhs_s(ys, s, _seg=seg):
            return rhs(ys, _seg.t_of_s(s)) * _seg.dt_ds(s)

        traj, _ = integrate(rhs_s, y, 0.0, 1.0, cfg)
        start = 0 if j == 0 else 1  # skip duplicated junction point
        for s, state in zip(traj.times[start:], traj.states[start:]):
            out.times.append(j + s)
            out.states.append(state)
            out.path_times.append(complex(seg.t_of_s(s)))
        out.dense_segments.extend(replace(d, t0=j + d.t0)
                                  for d in traj.dense_segments)
        out.stats = out.stats + traj.stats
        y = traj.states[-1]
    return out

"""Adaptive embedded Runge-Kutta 5(4) over complex state vectors.

Dormand-Prince coefficients with a PI step-size controller, in
integrating-factor (Lawson) form for y' = L y + N(y, t) with a diagonal
linear part L that is stepped exactly; dense output by one sub-step of
the same method from the start of the covering step; sign-change event
location on the dense output; and integration along piecewise-smooth
paths in the complex time plane.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

# Dormand-Prince 5(4) tableau; row i of _A weighs the stages j < i.  The
# last stage is taken at the fifth-order solution (first same as last),
# so row 6 holds the fifth-order weights b_j.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([row + [0.0] * (7 - len(row)) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _A[6] - _B4   # weights of the embedded error estimate
# the stage pairs (i, j), j < i, row by row: stage i's weights are rows
# _ROW[i] .. _ROW[i] + i - 1 of a packed (21, n) array
_LOWER = np.tril_indices(7, -1)
_ROW = [i * (i - 1) // 2 for i in range(8)]
_GAPS = _C[_LOWER[0]] - _C[_LOWER[1]]       # c_i - c_j
_A_PACKED = _A[_LOWER][:, None]
# c_i - c_j, the packed tableau and the error weights as columns against
# the state axis: [False] for a step length h that is a number, [True]
# with one more axis for an (m, 1) column of step lengths
_COLUMNS = [tuple(w.reshape((-1,) + (1,) * axes)
                  for w in (_GAPS, _A_PACKED, _E)) for axes in (1, 2)]
# most times one batched dense sub-step reads (Trajectory.states_at)
_BLOCK = 16

RHS = Callable[[np.ndarray, complex], np.ndarray]
Observable = Callable[[np.ndarray], float]


class IntegrationError(Exception):
    pass


class StiffnessOrSingularity(IntegrationError):
    """Step size underflow; carries the last accepted time and the
    trajectory up to it."""

    def __init__(self, t, trajectory, message="step size underflow"):
        self.t, self.trajectory = t, trajectory
        super().__init__(f"{message} at t = {t}")


class MaxStepsExceeded(IntegrationError):
    def __init__(self, t, trajectory):
        self.t, self.trajectory = t, trajectory
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


@dataclass
class DenseSegment:
    """One accepted step [t0, t0 + h] with what its dense output needs:
    the start state r1, the right-hand side k1 there, and the sub-step
    substep(t0, r1, tau, k1) of the method that took the step."""

    t0: float
    h: float
    r1: np.ndarray
    k1: np.ndarray
    substep: Callable[[float, np.ndarray, float, np.ndarray], np.ndarray]

    def eval(self, t: float) -> np.ndarray:
        """The state at t: one step of length t - t0 from (t0, r1).  It is
        as accurate as an accepted step, returns r1 itself at t0 and the
        step's own end state at t0 + h."""
        tau = t - self.t0
        if tau == 0.0:
            return self.r1
        return self.substep(self.t0, self.r1, tau, self.k1)

    def eval_block(self, ts: Sequence[float]) -> np.ndarray:
        """The states at the times ts in (t0, t0 + h], one row each: the
        sub-steps of eval taken together, as one step of the method on an
        (m, n) block with an (m, 1) column of step lengths."""
        tau = np.reshape(ts, (-1, 1)) - self.t0
        block = np.broadcast_to(self.r1, (tau.shape[0], self.r1.size))
        return self.substep(self.t0, block, tau, self.k1)


@dataclass
class IntegratorStats:
    """What one integration did: steps, rejections and evaluations."""

    accepted: int = 0
    rejected_error: int = 0          # error norm above 1
    rejected_nonfinite: int = 0      # a stage's rhs was NaN or infinite
    rhs_calls: int = 0               # steps, dense output and event location
    event_evals: int = 0             # observable calls while locating a root
    h_accepted: list = field(default_factory=list, repr=False)

    def record(self) -> dict:
        """The counts plus the smallest, median and largest accepted step."""
        out = {k: v for k, v in vars(self).items() if k != "h_accepted"}
        h = self.h_accepted
        for name, fn in (("h_min", np.min), ("h_median", np.median),
                         ("h_max", np.max)):
            out[name] = float(fn(h)) if h else None
        return out


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    # dense_segments[i] covers [times[i], times[i + 1]]
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
        """Dense-output evaluation at any time inside the covered span:
        the stored state at a stored time, else the sub-step of the
        segment that covers t."""
        if not self.dense_segments:
            raise IntegrationError("no dense segments stored")
        times = self.times
        i = bisect_left(times, t)       # first stored time >= t
        if i < len(times) and times[i] == t:
            return self.states[i]
        if 0 < i < len(times):
            return self.dense_segments[i - 1].eval(t)
        # clamp to endpoints
        if abs(t - times[0]) <= 1e-12 * max(1.0, abs(t)):
            return self.states[0]
        if abs(t - times[-1]) <= 1e-12 * max(1.0, abs(t)):
            return self.states[-1]
        raise IntegrationError(f"t = {t} outside integrated span")

    def states_at(self, times: Sequence[float]) -> Iterator[np.ndarray]:
        """The states state_at returns at each of the times, in order.
        Consecutive times inside one dense segment are read _BLOCK at a
        time through one batched sub-step, so the times should be sorted
        for the batching to pay; stored times, the clamps at either end
        and times outside the span go through state_at."""
        stored, j = self.times, 0
        while j < len(times):
            i, end = bisect_left(stored, times[j]), j + 1
            if 0 < i < len(stored) and stored[i] != times[j]:
                while (end < len(times) and end - j < _BLOCK
                       and stored[i - 1] < times[end] < stored[i]):
                    end += 1
                yield from self.dense_segments[i - 1].eval_block(times[j:end])
            else:
                yield self.state_at(times[j])
            j = end


def _error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _combine(w, k):
    """sum_j w_j k_j over the rows of w (weights broadcast along the
    state), added in order j = 0, 1, ... from +0.0: the order of the
    builtin sum, so every bit matches it."""
    return np.add.reduce(w * k, axis=0, initial=0.0)


def _stage_weights(lin, clock, t, h):
    """Weights of one step from t to t + h: (decay, a, e), a packed.

    Plain DOPRI5 (lin None): decay is None, a the tableau and e the error
    weights.  Lawson form: with E_ij = exp(lin (T_i - T_j)), T_i the time
    at node t + c_i h (clock(t + c_i h) on a path, else the node itself),
    stage i starts from E_i0 y (decay[i]) and weighs stage j by a_ij E_ij,
    and the error weights are e_j E_6j.  The nodes never decrease, so
    |E| <= 1 whenever Re lin <= 0 and the real part of T increases.
    h is a number, or an (m, 1) column of step lengths from the same t,
    which gives each weight a row per step.
    """
    block = isinstance(h, np.ndarray)
    gaps_c, a_c, e_c = _COLUMNS[block]
    if lin is None:
        return None, a_c, e_c
    if clock is None:
        gaps = gaps_c * h
    else:
        nodes = np.array([clock(t + c * h) for c in _C])
        gaps = nodes[_LOWER[0]] - nodes[_LOWER[1]]
        if not block:
            gaps = gaps[:, None]
    ex = np.exp(gaps * lin)                        # E_ij, packed
    e = np.empty((7,) + ex.shape[1:], dtype=ex.dtype)
    e[:6] = e_c[:6] * ex[_ROW[6]:]
    e[6] = _E[6]                                   # E_66 = 1
    return ex[_ROW[:7]], a_c * ex, e


def _attempt_step(rhs, t, y, h, k1, lin=None, clock=None, dense=False):
    """One DOPRI5 step, in Lawson form when lin is given.

    Returns (y5, err, k, ok), k the (7, n) stages; ok=False on non-finite
    rhs.  With dense=True the step stops at y5, skipping the last stage,
    which only the error estimate and FSAL need: (y5, None, None, ok).
    An (m, n) block y with an (m, 1) column h takes m steps from t at
    once, each row as its own step would, with rhs called on the block.
    """
    decay, a, e = _stage_weights(lin, clock, t, h)
    k = np.empty((7,) + y.shape, dtype=complex)
    k[0] = k1
    for i in range(1, 7):
        yi = h * _combine(a[_ROW[i]:_ROW[i + 1]], k[:i])
        yi = y + yi if decay is None else decay[i] * y + yi
        if dense and i == 6:
            return yi, None, None, True
        ki = rhs(yi, t + _C[i] * h)
        if not np.isfinite(ki).all():
            return None, None, None, False
        k[i] = ki
    # the last stage was taken at the fifth-order solution yi
    return yi, h * _combine(e, k), k, True


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
              events: Sequence[EventSpec] = (), *,
              lin: Optional[np.ndarray] = None,
              clock: Optional[Callable[[float], complex]] = None,
              stats: Optional[IntegratorStats] = None
              ) -> tuple[Trajectory, Optional[EventHit]]:
    """Integrate y' = lin * y + rhs(y, t) from t0 to t1 (t1 > t0).

    lin is the diagonal of a linear part that the stepper treats exactly
    (Lawson form); None integrates y' = rhs(y, t) with plain DOPRI5.
    clock(s) is the time that lin acts over when the variable s is a path
    parameter (y' = (lin y + N) dt/ds); the default is s itself.
    Dense output calls rhs as well, Trajectory.states_at on (m, n) blocks
    of states with an (m, 1) column of times.

    Stops at the first event root, reached by a step of its own that
    must pass the error test; every accepted step is stored in the
    trajectory together with its dense-output segment, and every rhs
    call, later dense-output calls included, is counted in stats (a
    fresh IntegratorStats unless one is passed to share).
    """
    y = np.array(y0, dtype=complex, ndmin=1)
    if lin is not None:
        lin = np.asarray(lin)
    traj = Trajectory(stats=IntegratorStats() if stats is None else stats)
    traj.append(t0, y)
    stats = traj.stats

    # degenerate: observable already at a root at t0
    for ev in events:
        if abs(ev.observable(y)) <= ev.root_tol:
            return traj, EventHit(t0, y)

    def step_rhs(yy, tt):
        stats.rhs_calls += 1
        return rhs(yy, tt)

    def substep(ts, ys, tau, k1s):
        out, _, _, ok = _attempt_step(step_rhs, ts, ys, tau, k1s, lin, clock,
                                      dense=True)
        if not ok:
            raise IntegrationError(f"rhs non-finite in dense output at "
                                   f"t = {ts + tau}")
        return out

    g_prev = [ev.observable(y) for ev in events]
    k1 = step_rhs(y, t0)
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
        y_new, err_vec, k, ok = _attempt_step(step_rhs, t, y, h, k1, lin,
                                              clock)
        hit = None
        if ok:
            err = _error_norm(err_vec, y, y_new, cfg.atol, cfg.rtol)
        if ok and err <= 1.0:
            g_new = [ev.observable(y_new) for ev in events]
            fired = [i for i, ev in enumerate(events)
                     if _check_event(ev, g_prev[i], g_new[i])]
            if fired:
                ev = events[fired[0]]
                seg = DenseSegment(t, h, y, k1, substep)
                t_star, root = brentq(
                    lambda tt: ev.observable(seg.eval(tt)),
                    t, t + h, xtol=ev.root_tol, full_output=True)
                stats.event_evals += root.function_calls
                # the step onto the root must pass the error test itself
                h = t_star - t
                y_new, err_vec, k, ok = _attempt_step(step_rhs, t, y, h,
                                                      k1, lin, clock)
                if ok:
                    err = _error_norm(err_vec, y, y_new, cfg.atol, cfg.rtol)
                    hit = EventHit(t_star, y_new)
        if not ok:
            stats.rejected_nonfinite += 1
            h *= 0.5
            if h < cfg.h_min:
                raise StiffnessOrSingularity(
                    t, traj, "rhs non-finite, step underflow")
            continue
        if err <= 1.0:
            stats.accepted += 1
            stats.h_accepted.append(h)
            seg = DenseSegment(t, h, y, k1, substep)
            if hit is not None:
                traj.append(hit.t, hit.state, seg)
                return traj, hit
            g_prev = g_new
            t = t + h
            y = y_new
            k1 = k[6].copy()  # FSAL; a copy, so a segment keeps no stages
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
            raise StiffnessOrSingularity(t, traj)
    raise MaxStepsExceeded(t, traj)


@dataclass(frozen=True)
class PathSegment:
    """Smooth piece of a complex-t path, parameterized by s in [0, 1]."""

    t_of_s: Callable[[float], complex]
    dt_ds: Callable[[float], complex]


def line_segment(t_start: complex, t_end: complex) -> PathSegment:
    return PathSegment(lambda s: t_start + s * (t_end - t_start),
                       lambda s: t_end - t_start)


def semicircle(center: complex, radius: float) -> PathSegment:
    """Half circle from center - radius to center + radius through
    Im t > 0."""

    def t_of_s(s):
        return center + radius * np.exp(1j * (np.pi * (1.0 - s)))

    def dt_ds(s):
        return -1j * np.pi * radius * np.exp(1j * (np.pi * (1.0 - s)))

    return PathSegment(t_of_s, dt_ds)


def integrate_path(rhs: RHS, y0, path: Sequence[PathSegment],
                   cfg: IntegratorConfig = IntegratorConfig(),
                   lin: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate dy/ds = (lin * y + rhs(y, t(s))) dt/ds along the
    concatenated path; lin is stepped exactly over t(s) as in integrate.

    Leg j runs over s in [j, j + 1]: times and dense segments are in this
    global s, path_times holds t(s) at each stored state, and all legs
    count into the one stats of the returned trajectory.
    """
    out = Trajectory(path_times=[])
    y = y0
    for j, seg in enumerate(path):
        def t_of(s, _seg=seg, _j=j):
            return _seg.t_of_s(s - _j)

        def rhs_s(ys, s, _seg=seg, _j=j):
            return rhs(ys, _seg.t_of_s(s - _j)) * _seg.dt_ds(s - _j)

        traj, _ = integrate(rhs_s, y, float(j), float(j + 1), cfg, lin=lin,
                            clock=t_of, stats=out.stats)
        start = 0 if j == 0 else 1  # skip duplicated junction point
        out.times.extend(traj.times[start:])
        out.states.extend(traj.states[start:])
        out.path_times.extend(complex(t_of(s)) for s in traj.times[start:])
        out.dense_segments.extend(traj.dense_segments)
        y = traj.states[-1]
    return out

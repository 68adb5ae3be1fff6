"""Adaptive embedded Runge-Kutta 5(4) over real or complex state vectors.

Dormand-Prince coefficients with a PI step-size controller, in
integrating-factor (Lawson) form for y' = L y + N(y, t) with a diagonal
linear part L that is stepped exactly; dense output by one sub-step of
the same method from the start of the covering step; sign-change event
location on the dense output; and integration around a point of the
real axis through the complex time plane, on two straight legs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

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
# the 15 distinct values of the gaps c_i - c_j (found in Python: np.unique
# would page numpy's sort code in at import, about 0.6 MB of resident memory)
_GAPS = (_C[_LOWER[0]] - _C[_LOWER[1]]).tolist()
_DISTINCT_GAPS = sorted(set(_GAPS))
_A_PACKED = _A[_LOWER][:, None]
_WEIGHTS = np.concatenate([_A_PACKED, _E[:, None]])
# the distinct gaps of the packed pairs whose exponentials a step
# gathers: E_i0 (the decays), the tableau's 21, the error weights' (6, 0)
# .. (6, 6) (pair 20, gap c_6 - c_5 = 0, gives E_00 = E_66 = 1); a dense
# sub-step takes 28 rows
_TAKE = np.array([_DISTINCT_GAPS.index(_GAPS[p]) for p in
                  [20] + _ROW[1:7] + list(range(21)) + list(range(15, 21))
                  + [20]])
# the distinct gaps as a column against the state axis; a block step's
# gaps and weights with one more axis, for an (m, 1) column of step lengths
_GAP_COLUMN = np.array(_DISTINCT_GAPS)[:, None]
_BLOCK_GAPS, _BLOCK_WEIGHTS = _GAP_COLUMN[:, :, None], _WEIGHTS[:, :, None]
# plain DOPRI5's weights (lin None) as (a, e): [False] for one state, by
# the dtype of its stages, [True] for a block, float and without error
# weights (see _stage_weights)
_PLAIN = [{dtype: (_WEIGHTS[:21].astype(dtype), _WEIGHTS[21:].astype(dtype))
           for dtype in (np.dtype(float), np.dtype(complex))},
          (_BLOCK_WEIGHTS[:21], None)]
# most times one batched dense sub-step reads (Trajectory.states_at)
_BLOCK = 16
# states per block of Trajectory.state_blocks, the sample-grid datasets' read
_SAMPLE_BLOCK = 64
# the step controller's first step, the step below which a solve stops
# (StiffnessOrSingularity) and the step count at which it stops
# (MaxStepsExceeded)
_H_INIT = 1e-4
_H_MIN = 1e-14
_MAX_STEPS = 1_000_000
# Brent's root finder: the relative part of its tolerance and its
# iteration cap
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_ITER = 100

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
        super().__init__(f"more than {_MAX_STEPS} steps by t = {t}")


@dataclass(frozen=True)
class IntegratorConfig:
    """The error tolerances of a solve; the rest of the step controller
    is fixed (_H_INIT, _H_MIN, _MAX_STEPS)."""

    rtol: float
    atol: float

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} = {value}: tolerances must be "
                                 "positive and finite")


@dataclass(frozen=True)
class EventSpec:
    """A root of observable where it crosses zero from above."""

    observable: Observable
    direction: str                  # "decreasing", the one direction
    root_tol: float

    def __post_init__(self):
        if self.direction != "decreasing":
            raise ValueError(f"unknown event direction {self.direction!r}; "
                             "events fire on a decreasing crossing only")


@dataclass
class DenseSegment:
    """One accepted step [t0, t0 + h] with what its dense output needs:
    the start state r1, the right-hand side k1 there, and the sub-step
    substep(t0, ys, tau, k1) of the method that took the step, on an
    (m, n) block ys with an (m, 1) column tau of step lengths.  A step
    that an integration with kept times does not read holds None for
    both (the first step keeps its r1, the first state)."""

    t0: float
    h: float
    r1: Optional[np.ndarray]
    k1: Optional[np.ndarray]
    substep: Callable[[float, np.ndarray, np.ndarray, np.ndarray],
                      np.ndarray]

    def eval_block(self, ts: Sequence[float]) -> Sequence[np.ndarray]:
        """The states at the times ts in [t0, t0 + h], one row each: for
        each time one step of length t - t0 from (t0, r1), as accurate as
        an accepted step, taken together as one step of the method on an
        (m, n) block with an (m, 1) column of step lengths.  The one time
        t0 gives r1 itself; t0 + h gives the step's own end state."""
        tau = np.reshape(ts, (-1, 1)) - self.t0
        if tau.shape == (1, 1) and tau[0, 0] == 0.0:
            return [self.r1]
        block = np.broadcast_to(self.r1, (tau.shape[0], self.r1.size))
        return self.substep(self.t0, block, tau, self.k1)


@dataclass
class IntegratorStats:
    """What one integration did: the arithmetic of its states ("real" or
    "complex"), steps, rejections and evaluations."""

    arithmetic: str = ""             # integrate sets it
    accepted: int = 0
    rejected_error: int = 0          # error norm above 1
    rejected_nonfinite: int = 0      # a stage's rhs was NaN or infinite
    rhs_calls: int = 0               # steps and event location
    lookup_rhs_calls: int = 0        # dense output read after the solve
    event_evals: int = 0             # observable calls while locating a root
    h_accepted: list = field(default_factory=list, repr=False)

    def record(self) -> dict:
        """The counts plus the smallest, median and largest accepted step."""
        out = {k: v for k, v in vars(self).items() if k != "h_accepted"}
        h, i = sorted(self.h_accepted), len(self.h_accepted) // 2
        if not h:
            return {**out, "h_min": None, "h_median": None, "h_max": None}
        # the middle step, or the mean of the two middle ones, as
        # statistics.median takes it (that module loads fractions and decimal)
        median = h[i] if len(h) % 2 else (h[i - 1] + h[i]) / 2
        return {**out, "h_min": float(h[0]), "h_median": float(median),
                "h_max": float(h[-1])}


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    # None where an integration with kept times let a state go
    states: list = field(default_factory=list)
    # dense_segments[i] covers [times[i], times[i + 1]]
    dense_segments: list = field(default_factory=list)
    stats: IntegratorStats = field(default_factory=IntegratorStats)
    # the times that dense output answers at besides the two ends; None
    # for every time in the span
    kept: Optional[frozenset] = None

    def append(self, t, y, segment=None):
        """Store y itself, read-only: dense segments share it as r1."""
        y.flags.writeable = False
        self.times.append(t)
        self.states.append(y)
        if segment is not None:
            self.dense_segments.append(segment)

    def _let_go(self, seg: DenseSegment, t_end: float, ahead: list) -> None:
        """Before seg, the step [seg.t0, t_end], is appended: unless a
        kept time lies inside it (seg.t0 < tau < t_end), it holds no
        arrays, and the state at its start goes too, but for the first
        state and a state at a kept time (states_at reads a stored time
        from its state, not from a sub-step).  ahead holds the kept times
        not yet passed, latest first."""
        while ahead and ahead[-1] <= seg.t0:
            ahead.pop()
        if ahead and ahead[-1] < t_end:
            return
        seg.k1 = None
        if self.dense_segments:
            seg.r1 = None
            if seg.t0 not in self.kept:
                self.states[-1] = None

    def state_at(self, t: float) -> np.ndarray:
        """The state at t, as states_at gives it."""
        return next(self.states_at([t]))

    def states_at(self, times: Sequence[float]) -> Iterator[np.ndarray]:
        """Dense-output evaluation at each of the times, in order, inside
        the covered span (at a kept time or either end when the
        integration kept times): the stored state at a stored time (a
        trajectory of one state has no segment), else the sub-step of the
        segment that covers it, or the state at an end that it lies
        within 1e-12 of.  Consecutive times inside one dense segment are
        read _BLOCK at a time through one batched sub-step, so the times
        should be sorted for the batching to pay."""
        stored, j = self.times, 0
        if self.kept is not None:
            for t in times:
                if t not in self.kept and t != stored[0] and t != stored[-1]:
                    raise IntegrationError(
                        f"t = {t} was not kept: the integration held dense "
                        "output only at its kept times and its two ends")
        while j < len(times):
            t = times[j]
            i, end = bisect_left(stored, t), j + 1     # first stored >= t
            if i < len(stored) and stored[i] == t:
                yield self.states[i]
            elif 0 < i < len(stored):
                while (end < len(times) and end - j < _BLOCK
                       and stored[i - 1] < times[end] < stored[i]):
                    end += 1
                yield from self.dense_segments[i - 1].eval_block(times[j:end])
            elif abs(t - stored[0]) <= 1e-12 * max(1.0, abs(t)):
                yield self.states[0]
            elif abs(t - stored[-1]) <= 1e-12 * max(1.0, abs(t)):
                yield self.states[-1]
            else:
                raise IntegrationError(f"t = {t} outside integrated span")
            j = end

    def state_blocks(self, times: Sequence[float]) -> Iterator[tuple]:
        """states_at's states, _SAMPLE_BLOCK at a time: the rows of the
        times that each block covers, and its (m, n) array of states."""
        states = self.states_at(times)
        for lo in range(0, len(times), _SAMPLE_BLOCK):
            block = np.array(list(islice(states, _SAMPLE_BLOCK)))
            yield slice(lo, lo + len(block)), block


def _error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    r = np.abs(err / scale)
    r *= r
    return math.sqrt(np.add.reduce(r) / r.size)     # np.mean's bits


def _combine(w, k):
    """sum_j w_j k_j over the rows of w (weights broadcast along the
    state), added in order j = 0, 1, ... from +0.0: the order of the
    builtin sum, so every bit matches it."""
    return np.add.reduce(w * k, axis=0, initial=0.0)


def _lawson_tables(lin):
    """What a single-state step in Lawson form reads in place of lin,
    built once per integration so that no step broadcasts a column
    across the state: (lin in one row per distinct gap, 15 rows; the
    packed weights in one column per state component).  None for plain
    DOPRI5 (lin None)."""
    if lin is None:
        return None
    lin = np.asarray(lin)
    return (np.repeat(lin[None], 15, axis=0),
            np.repeat(_WEIGHTS, lin.size, axis=1))


def _stage_weights(tables, h, dtype):
    """Weights of one step of length h: (decay, a, e), a packed.

    h is a number for a full step, or an (m, 1) column of step lengths
    for a dense sub-step (Trajectory's lookups and event location), which
    gives each weight a row per step and has no error weights (e None).
    Plain DOPRI5 (tables None): decay is None, a the tableau and e the
    error weights.  Lawson form (tables from _lawson_tables): with
    E_ij = exp(lin (c_i - c_j) h), stage i starts from E_i0 y (decay[i])
    and weighs stage j by a_ij E_ij; the error weights are e_j E_6j.  The
    gaps c_i - c_j are never negative, so |E| <= 1 whenever Re lin <= 0.

    A single state's weights take the dtype of its stages, so that no
    product with a stage casts: on complex stages, (w + 0i)(c + di) is
    what the cast computes, bit for bit.  A block's keep lin's dtype, as
    complex block weights cost more than the casts they save.
    """
    block = isinstance(h, np.ndarray)
    if tables is None:
        return (None,) + (_PLAIN[True] if block else _PLAIN[False][dtype])
    lin_rows, weights = tables
    if block:
        g = np.take(np.exp(_BLOCK_GAPS * h * lin_rows[0]), _TAKE[:28], axis=0)
        g[7:] *= _BLOCK_WEIGHTS[:21]
        return g[:7], g[7:], None
    g = np.multiply(_GAP_COLUMN * h, lin_rows)
    np.exp(g, out=g)
    g = g[_TAKE]
    g[7:] *= weights
    g = g.astype(dtype, copy=False)
    return g[:7], g[7:28], g[28:]


def _attempt_step(rhs, t, y, h, k1, tables):
    """One DOPRI5 step, in Lawson form unless tables is None (see
    _lawson_tables).

    A single state y with a number h takes a full step: (y5, err, k, ok),
    k the (7, n) stages; ok=False on non-finite rhs.  An (m, n) block y
    with an (m, 1) column h takes m dense sub-steps from t at once, each
    row as its own step would, with rhs called on the block: it stops at
    y5, skipping the last stage, which only the error estimate and FSAL
    need: (y5, None, None, ok).
    """
    decay, a, e = _stage_weights(tables, h, y.dtype)
    k = np.empty((7,) + y.shape, dtype=y.dtype)
    k[0] = k1
    for i in range(1, 7):
        yi = _combine(a[_ROW[i]:_ROW[i + 1]], k[:i])
        yi *= h
        yi += y if decay is None else decay[i] * y
        if e is None and i == 6:
            return yi, None, None, True
        ki = rhs(yi, t + _C[i] * h)
        if np.count_nonzero(np.isfinite(ki)) < ki.size:
            return None, None, None, False
        k[i] = ki
    # the last stage was taken at the fifth-order solution yi
    err = _combine(e, k)
    err *= h
    return yi, err, k, True


def brentq(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
           xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """A root of f in each lane of brackets a[i], b[i] where f changes
    sign, to within xtol + _BRENT_RTOL |root|; returns the roots and the
    calls of f that each lane took, as (m,) arrays.

    f(x, lanes) gives the value of lane lanes[i] at x[i], for the lanes
    still iterating.  Each lane runs Brent's method (Brent 1973, ch. 4)
    step for step as the classic C routine brentq.c, so it reaches the
    same root bits after the same calls.  A NaN value of f or a bracket
    without a sign change raises ValueError, and a lane without
    convergence in _BRENT_ITER iterations raises RuntimeError.
    """
    def value(x, lanes):
        fx = np.asarray(f(x, lanes), dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"the function value at x = "
                             f"{x[np.isnan(fx)][0]} is NaN")
        return fx

    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    lanes = np.arange(xcur.size)
    fpre, fcur = value(xpre, lanes), value(xcur, lanes)
    roots = np.where(fpre == 0.0, xpre, xcur)
    calls = np.full(xcur.size, 2)
    go = (fpre != 0.0) & (fcur != 0.0)
    if np.any(go & ((fpre < 0.0) == (fcur < 0.0))):
        raise ValueError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = (v[go] for v in
                                     (lanes, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(lanes.size)
    for n in range(2, _BRENT_ITER + 2):     # calls of f so far
        new = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre, scur = (np.where(new, xcur - xpre, spre),
                      np.where(new, xcur - xpre, scur))
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                            np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                            np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        roots[lanes[done]], calls[lanes[done]] = xcur[done], n
        if done.all():
            return roots, calls
        lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, \
            sbis = (v[~done] for v in (lanes, xpre, xcur, xblk, fpre, fcur,
                                       fblk, spre, scur, delta, sbis))
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = (-fcur * (fblk * dblk - fpre * dpre)
                         / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, secant, quadratic)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry)
                    < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = value(xcur, lanes)
    raise RuntimeError(f"no convergence after {_BRENT_ITER} iterations")


def integrate(rhs: RHS, y0, t0: float, t1: float, cfg: IntegratorConfig,
              events: Sequence[EventSpec] = (), *,
              lin: Optional[np.ndarray] = None,
              keep: Optional[Iterable[float]] = None,
              stats: Optional[IntegratorStats] = None) -> Trajectory:
    """Integrate y' = lin * y + rhs(y, t) from t0 to a finite t1 >= t0
    (t1 = t0 stores y0 alone).

    lin is the diagonal of a linear part that the stepper treats exactly
    (Lawson form); None integrates y' = rhs(y, t) with plain DOPRI5.
    Dense output and event location call rhs as well, on (m, n) blocks
    of states with an (m, 1) column of times (one row for
    Trajectory.state_at and for each of the event's trial times).

    With events, stops at the first root, where an observable goes from
    > 0 to <= 0 over an accepted step (at t0 itself when one is already
    within its root_tol of 0 there): the trajectory ends at the root, its
    last state that of a step onto it that must pass the error test; a
    run that reaches t1 first raises IntegrationError.  Every accepted
    step is recorded in the trajectory, its time and its dense-output
    segment.  keep holds the times the caller will read the dense output
    at: with keep, only a step with one of them inside holds its start
    state and k1, besides the states at kept times and the first and the
    last state, and Trajectory.states_at refuses every other time; None
    holds every state and answers anywhere in the span.
    Every rhs call is counted in stats (a fresh IntegratorStats unless
    one is passed to share): the solve's own in rhs_calls, the dense
    output read after it in lookup_rhs_calls.  The states are real when
    y0, lin and rhs(y0, t0) are, else complex, and stats.arithmetic names
    which.
    """
    if not math.isfinite(t1):
        raise ValueError(f"t1 = {t1} is not finite")
    y = np.array(y0, ndmin=1, dtype=complex if np.iscomplexobj(y0)
                 or np.iscomplexobj(lin) else float)
    tables = _lawson_tables(lin)
    traj = Trajectory(stats=IntegratorStats() if stats is None else stats,
                      kept=None if keep is None else frozenset(keep))
    traj.append(t0, y)
    stats = traj.stats
    stats.arithmetic = "complex" if np.iscomplexobj(y) else "real"
    # the kept times not yet passed, latest first
    ahead = None if keep is None else sorted(traj.kept, reverse=True)

    # degenerate: observable already at a root at t0
    if any(abs(ev.observable(y)) <= ev.root_tol for ev in events):
        return traj

    def step_rhs(yy, tt):
        stats.rhs_calls += 1
        return rhs(yy, tt)

    def lookup_rhs(yy, tt):
        stats.lookup_rhs_calls += 1
        return rhs(yy, tt)

    def dense(count_rhs):
        def substep(ts, ys, tau, k1s):
            out, _, _, ok = _attempt_step(count_rhs, ts, ys, tau, k1s,
                                          tables)
            if not ok:
                raise IntegrationError(f"rhs non-finite in dense output at "
                                       f"t = {ts + tau}")
            return out
        return substep

    # event location is part of the solve; the stored segments are read
    # after it
    locate, lookup = dense(step_rhs), dense(lookup_rhs)

    g_prev = [ev.observable(y) for ev in events]
    k1 = step_rhs(y, t0)
    if not np.all(np.isfinite(k1)):
        raise IntegrationError(f"rhs non-finite at t0 = {t0}")
    if np.iscomplexobj(k1) and not np.iscomplexobj(y):
        traj.states[0] = y = y.astype(complex)
        y.flags.writeable = False
        stats.arithmetic = "complex"

    t = t0
    h = min(_H_INIT, t1 - t0)
    err_prev = 1.0
    safety, min_fac, max_fac = 0.9, 0.2, 5.0

    for _ in range(_MAX_STEPS):
        if t >= t1:
            if events:
                raise IntegrationError(f"no event root in [{t0}, {t1}]")
            return traj
        h = min(h, t1 - t)
        y_new, err_vec, k, ok = _attempt_step(step_rhs, t, y, h, k1,
                                              tables)
        t_root = None
        if ok:
            err = _error_norm(err_vec, y, y_new, cfg.atol, cfg.rtol)
        if ok and err <= 1.0:
            g_new = [ev.observable(y_new) for ev in events]
            fired = [i for i in range(len(events))
                     if g_prev[i] > 0.0 >= g_new[i]]
            if fired:
                ev = events[fired[0]]
                seg = DenseSegment(t, h, y, k1, locate)
                roots, calls = brentq(
                    lambda tt, _: [ev.observable(row)
                                   for row in seg.eval_block(tt)],
                    [t], [t + h], ev.root_tol)
                t_star = float(roots[0])
                stats.event_evals += int(calls[0])
                # the step onto the root must pass the error test itself
                h = t_star - t
                y_new, err_vec, k, ok = _attempt_step(step_rhs, t, y, h,
                                                      k1, tables)
                if ok:
                    err = _error_norm(err_vec, y, y_new, cfg.atol, cfg.rtol)
                    t_root = t_star
        if not ok:
            stats.rejected_nonfinite += 1
            h *= 0.5
            if h < _H_MIN:
                raise StiffnessOrSingularity(
                    t, traj, "rhs non-finite, step underflow")
            continue
        if err <= 1.0:
            stats.accepted += 1
            stats.h_accepted.append(h)
            t_next = t + h if t_root is None else t_root
            seg = DenseSegment(t, h, y, k1, lookup)
            if ahead is not None:
                traj._let_go(seg, t_next, ahead)
            traj.append(t_next, y_new, seg)
            if t_root is not None:
                return traj
            g_prev = g_new
            t, y = t_next, y_new
            k1 = k[6].copy()  # FSAL; a copy, so a segment keeps no stages
            # PI controller
            fac = safety * err ** -0.14 * err_prev ** 0.08 if err > 0 else max_fac
            h *= min(max_fac, max(min_fac, fac))
            err_prev = max(err, 1e-10)
        else:
            stats.rejected_error += 1
            fac = safety * err ** -0.2
            h *= min(1.0, max(min_fac, fac))
        if h < _H_MIN and t < t1:
            raise StiffnessOrSingularity(t, traj)
    raise MaxStepsExceeded(t, traj)


def integrate_path(rhs: RHS, y0, center: float, radius: float,
                   cfg: IntegratorConfig, lin: np.ndarray) -> Trajectory:
    """Integrate y' = lin * y + rhs(y, t) from center - radius to
    center + radius around center through Im t > 0, on two straight legs
    by way of center + i radius.  On a leg t = a + s u, |u| = 1, with s
    its arc length, dy/ds = u lin y + u rhs(y, a + s u): a Lawson run in
    s whose linear part u lin is stepped exactly, and whose steps are the
    distances they span in t.  Returns the second leg, its times the
    arc length along it, with the stats of both legs; neither keeps
    dense output, so its states are its two ends alone; they are complex,
    as u lin is."""
    top = center + 1j * radius

    def leg(a, b, y, stats):
        u = (b - a) / abs(b - a)
        return integrate(lambda ys, s: u * rhs(ys, a + u * s), y, 0.0,
                         abs(b - a), cfg, lin=u * lin, keep=(), stats=stats)

    first = leg(center - radius, top, y0, None)
    return leg(top, center + radius, first.states[-1], first.stats)

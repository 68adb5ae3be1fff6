"""Nearest-complex-singularity estimation from solver output.

Two independent estimators: (i) strip-width fitting on the decay rate
of the Fourier coefficients of u = 1/v (pole model |a_k| ~ C k^p e^{-ky}
with p = 1 for the leading second-order pole), and (ii) direct root
finding of v(iy) = 0 on the positive imaginary axis.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .integrator import Trajectory, brentq
from .spectral import HORNER_ROUNDOFF, horner
from .pde import u_from_v

_EXP_LIMIT = 700.0
_ROUNDOFF = np.finfo(float).eps
# the axis scan: samples on (0, y_max], and the root tolerance in y
_SCAN_POINTS = 400
_ROOT_TOL = 1e-10


@dataclass
class SingularityTrack:
    times: np.ndarray
    y_fit: np.ndarray          # NaN where unusable
    y_root: np.ndarray         # NaN where unusable
    fit_residual: np.ndarray
    no_root: dict = field(default_factory=dict)   # no-root reason -> count
    no_fit: dict = field(default_factory=dict)    # dropped-fit reason -> count
    seconds: dict = field(default_factory=dict)   # phase -> seconds

    def usable_fit(self) -> np.ndarray:
        return np.isfinite(self.y_fit)

    def usable_root(self) -> np.ndarray:
        return np.isfinite(self.y_root)


def _roundoff_floor(coeffs: np.ndarray) -> np.ndarray:
    """|c| below which a coefficient is roundoff of the largest in its row."""
    return 100.0 * _ROUNDOFF * np.maximum(
        1.0, np.max(np.abs(coeffs), axis=-1, keepdims=True))


def _fit_windows(z: np.ndarray, k_lo: np.ndarray,
                 k_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit z_k = log C - k y on each row of an (m, N) block
    of z_k = log|a_k| - log k, k = 1..N, over the row's window
    k_lo..k_hi, centred on the window's mean k, for the whole block at
    once: y and the rms residual per row.

    The prefactor k^p is fixed at p = 1, the second-order pole's; the
    window is honoured as given, the caller having stopped it above the
    roundoff floor.
    """
    k = np.arange(1, z.shape[-1] + 1)
    inside = (k >= k_lo[:, None]) & (k <= k_hi[:, None])
    count = k_hi - k_lo + 1
    dk = np.where(inside, k - (k_lo + k_hi)[:, None] / 2, 0.0)
    z_mean = np.sum(np.where(inside, z, 0.0), axis=1) / count
    dz = np.where(inside, z - z_mean[:, None], 0.0)
    y = -np.sum(dk * dz, axis=1) / np.sum(dk * dk, axis=1)
    residual = np.sqrt(np.sum((dz + y[:, None] * dk) ** 2, axis=1) / count)
    return y, residual


def _decaying_range(log_mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (m, N) block of log|a_k|, k = 1..N, the window
    (k_lo, k_hi) on the genuinely decaying part of the spectrum.

    A decaying spectrum keeps setting new running minima (modulo even/odd
    oscillation); the flat noise plateau of the time stepper does not.
    The window ends one mode before the first new minimum that no other
    follows within 8 modes, and starts at half that, at least 8.
    """
    n = log_mag.shape[-1]
    new_min = np.ones(log_mag.shape, dtype=bool)
    new_min[:, 1:] = (log_mag[:, 1:]
                      < np.minimum.accumulate(log_mag, axis=1)[:, :-1])
    # the count of new minima among the 8 modes after each mode
    count = np.cumsum(new_min, axis=1)
    ahead = count[:, np.minimum(np.arange(n) + 8, n - 1)] - count
    # k_hi is one below that minimum, which may already touch the plateau
    k_hi = np.argmax(new_min & (ahead == 0), axis=1)
    return np.maximum(8, k_hi // 2), k_hi


def strip_width_estimate(coeffs: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, list]:
    """Strip width from coefficient decay with an adaptive k-window, for
    each row of an (m, 2N+1) block of u's coefficients.

    The window ends where the decaying spectrum meets the integrator noise
    plateau or the roundoff floor of its largest coefficient, whichever
    comes first, and starts at half that, avoiding low-k profile
    contamination.  Only a window of at least 8 modes, none of them
    zero, is fitted, every row of the block in one pass (_fit_windows).
    The fixed-p fit carries an O(1/k) bias from logarithmic corrections to
    the pole model; when the spectrum is resolved all the way to
    truncation, two half-window fits are extrapolated in 1/k to remove it.
    Returns y and the rms residual of the full-window fit, NaN in a row
    without a fit, and for each row None or the reason it has none.
    """
    n = coeffs.shape[-1] // 2
    a = np.abs(coeffs[:, n + 1:])
    log_mag = np.log(np.where(a > 0.0, a, 1e-300))
    k_lo, k_hi = _decaying_range(log_mag)
    # coefficients at roundoff bend the fitted decay and bias y low
    above = (a > _roundoff_floor(coeffs)) & (np.arange(n) < k_hi[:, None])
    k_hi = np.max(above * np.arange(1, n + 1), axis=1, initial=0)
    y, residual = np.full((2, len(coeffs)), np.nan)
    # fixed messages, so build_track counts these drops as one reason each
    why = ["decaying k-range too short (< 8 usable modes)" if hi - lo + 1 < 8
           else "zero coefficient inside k-range"
           if np.any(row[lo - 1:hi] <= 0.0) else None
           for row, lo, hi in zip(a, k_lo, k_hi)]
    rows = np.flatnonzero([reason is None for reason in why])
    z = log_mag[rows] - np.log(np.arange(1, n + 1))
    lo, hi = k_lo[rows], k_hi[rows]
    y[rows], residual[rows] = _fit_windows(z, lo, hi)
    halve = (hi >= n - 2) & (hi - lo + 1 >= 16)
    z, lo, hi = z[halve], lo[halve], hi[halve]
    mid = lo + (hi - lo) // 2
    (y1, _), (y2, _) = _fit_windows(z, lo, mid), _fit_windows(z, mid, hi)
    m1, m2 = 0.5 * (lo + mid), 0.5 * (mid + hi)
    y[rows[halve]] = (m2 * y2 - m1 * y1) / (m2 - m1)
    return y, residual, why


def _denoised(coeffs: np.ndarray) -> np.ndarray:
    """Suppress integrator noise in the coefficient tail of one state or
    of each row of a block.

    Two artifacts would otherwise dominate the analytic continuation
    e^{+ky}: (i) roundoff-level coefficients anywhere in the tail, and
    (ii) a noise ramp in the last few modes, a tail that *increases*
    strongly towards the truncation boundary, which a genuine
    (decaying-tail) spectrum cannot do.  The stepper treats the
    diffusion term exactly, so it no longer leaves tolerance-level error
    there; the ramp test still fires on roundoff-level tails.  The ramp:
    the modes k > N/2 at and above which |c| keeps more than doubling.
    """
    c = np.asarray(coeffs)
    n, half = c.shape[-1] // 2, c.shape[-1] // 4      # N and N // 2
    mag = np.maximum(np.abs(c[..., n:]), np.abs(c[..., n::-1]))  # k = 0..n
    ramp = mag[..., half + 1:] > 2.0 * mag[..., half:-1]   # k = half+1..n
    ramp = np.logical_and.accumulate(ramp[..., ::-1], axis=-1)[..., ::-1]
    out = c.copy()
    out[..., n + half + 1:][ramp] = 0.0
    out[..., n - half - 1::-1][ramp] = 0.0
    return np.where(np.abs(out) > _roundoff_floor(out), out, 0.0)


def _axis_series(coeffs: np.ndarray):
    """Re v(iy) = Re c_0 + sum_k Re c_k q^k + sum_k Re c_{-k} q^{-k},
    q = e^{-y}, and its slope d/dy Re v(iy) = sum_k k Re c_{-k} q^{-k}
    - sum_k k Re c_k q^k on the rows of an (m, 2N+1) block of
    coefficients, exact because q is real: returns per row the largest y
    before the growing part overflows (y_cap), where a term c_{-k} q^{-k}
    would pass e^{_EXP_LIMIT}, and at most _EXP_LIMIT, so that 1/q is
    finite up to it; and at(rows, y, slope), Re v(iy) or its slope at
    y[i, j] of row rows[i]: an (r, s) array by spectral.horner in q and
    1/q, in real arithmetic, NaN at y > y_cap.
    """
    n = coeffs.shape[-1] // 2
    # k = 1..N and -1..-N, contiguous: numpy takes another route to
    # |c| for a reversed single row, which can differ in the last bit
    c_pos = coeffs[:, n + 1:]
    c_neg = np.ascontiguousarray(coeffs[:, n - 1::-1])
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):        # -inf where c_-k = 0
        log_mag = np.log(np.abs(c_neg))
    y_cap = np.min((_EXP_LIMIT - log_mag) / k, axis=1, initial=_EXP_LIMIT)
    # c_0 and the (decaying, growing) weights of Re v and of its slope,
    # cut once for the block after its last nonzero mode, over k and -k
    real = np.stack([c_pos.real, c_neg.real])
    top = np.max(np.flatnonzero(np.any(real, axis=(0, 1))) + 1, initial=0)
    real, k = real[..., :top], k[:top]
    weights = ((coeffs[:, n].real, real),
               (np.zeros(len(coeffs)), real * np.stack([-k, k])[:, None]))

    def at(rows: np.ndarray, y: np.ndarray, slope: bool) -> np.ndarray:
        c0, w = weights[slope]
        cap = y_cap[rows, None]
        # q and 1/q, the latter at y clamped to y_cap so that it is finite
        base = np.exp([-y, np.minimum(y, cap)])
        return np.where(y > cap, np.nan, horner(c0[rows], w[:, rows], base))

    return y_cap, at


def root_on_axis(coeffs: np.ndarray) -> tuple[np.ndarray, list]:
    """For each row of an (m, 2N+1) block of denoised coefficients, the
    smallest y >= 0 with Re v(iy) = 0, polished by Brent's root finder
    (integrator.brentq) inside the first sign change of a scan up to the
    largest y the coefficient amplification allows.  Re v(0) at or below
    the roundoff of the coefficient sum means the singularity has already
    reached the real axis: the root is 0 (a root inside that roundoff
    would only mark the noise).

    A dip below zero narrower than the scan spacing shows only as a local
    minimum of the scan before its first sign change.  Where the slope
    goes from < 0 to >= 0 next to it, brentq finds the dip's bottom as the
    slope's root and, if that is at or below zero, the root before it; a
    minimum without such a change is finer than the scan, and unsearched.
    The first dip that reaches zero gives the root.

    Every dip of the block is searched in one brentq call, and every root
    polished in one more.  Returns the roots, NaN for a row without one,
    and for each row None or the reason it has none.
    """
    y_cap, axis = _axis_series(coeffs)
    roots = np.full(len(coeffs), np.nan)

    def at(rows, y, slope):
        """Re v(iy), or its slope, of each of the rows at its own y."""
        return axis(rows, y[:, None], slope)[:, 0]

    y_max = np.minimum(y_cap, 50.0) * 0.999
    why = [None if m > 0 else "no feasible y range" for m in y_max]
    rows = np.flatnonzero(y_max > 0)
    ys = np.zeros((rows.size, _SCAN_POINTS + 1))
    ys[:, 1:] = np.linspace(y_max[rows] / _SCAN_POINTS, y_max[rows],
                            _SCAN_POINTS, axis=-1)
    vals = axis(rows, ys, slope=False)
    on_axis = (vals[:, 0]
               <= HORNER_ROUNDOFF * np.sum(np.abs(coeffs[rows]), axis=-1))
    roots[rows[on_axis]] = 0.0
    rows, ys, vals = rows[~on_axis], ys[~on_axis], vals[~on_axis]
    # each row's first sign change, between samples flip and flip + 1, and
    # the strict local minima i before it, i + 1 < end (strictly below the
    # left neighbour, so a plateau gets one search); the scan stays below
    # y_cap, so every sample is finite
    j = np.arange(1, ys.shape[1])
    changes = (vals[:, 1:] > 0.0) != (vals[:, :-1] > 0.0)
    flipped, flip = changes.any(axis=1), np.argmax(changes, axis=1)
    end = np.where(flipped, flip + 1, ys.shape[1])
    dip_row, i = np.nonzero((vals[:, 1:-1] < vals[:, :-2])
                            & (vals[:, 1:-1] <= vals[:, 2:])
                            & (j[1:] < end[:, None]))
    # a dip: the slope goes from < 0 to >= 0 between two of the samples
    # i - 1, i and i + 1
    near = ys[dip_row[:, None], i[:, None] + [0, 1, 2]]
    s = axis(rows[dip_row], near, slope=True)
    up = (s[:, :-1] < 0.0) & (s[:, 1:] >= 0.0)
    dip = up.any(axis=1)
    dip_row, near, u = dip_row[dip], near[dip], np.argmax(up[dip], axis=1)
    lo, hi = np.take_along_axis(near, np.stack([u, u + 1], axis=1), 1).T
    y_dip, _ = brentq(lambda y, k: at(rows[dip_row[k]], y, True), lo, hi,
                      0.01 * _ROOT_TOL)
    deep = at(rows[dip_row], y_dip, False) <= 0.0
    # the root lies in a row's first dip that reaches zero, else in its
    # first sign change
    first_deep, k = np.unique(dip_row[deep], return_index=True)
    each = np.arange(rows.size)
    lo_root, hi_root = ys[each, flip], ys[each, flip + 1]
    lo_root[first_deep], hi_root[first_deep] = lo[deep][k], y_dip[deep][k]
    found = flipped
    found[first_deep] = True
    for r in rows[~found]:
        why[r] = "no sign change of Re v(iy) on the axis"
    rows = rows[found]
    roots[rows], _ = brentq(lambda y, k: at(rows[k], y, False),
                            lo_root[found], hi_root[found], 0.01 * _ROOT_TOL)
    return roots, why


# report the fit only while the full spectrum at this strip width is
# resolvable in double precision, and only while the strip is wider than
# two grid spacings, 2 pi / N (Sulem, Sulem & Frisch 1983): narrower, the
# decay e^{-ky} over the N modes is too weak to separate from the pole's
# algebraic prefactor, and the fit drifts below the axis root
_FIT_RESOLVABLE = 1e-14
_FIT_MIN_GRIDS = 2
# a least-squares residual above this means the window caught the
# integrator noise plateau rather than genuine coefficient decay
_FIT_MAX_RESIDUAL = 0.25


def _fit_drop_reason(y: float, residual: float, n_modes: int) -> Optional[str]:
    """Why a strip-width fit is not reported, or None when it is usable."""
    if not y > 0.0:
        return "y <= 0"
    if residual > _FIT_MAX_RESIDUAL:
        return f"residual > {_FIT_MAX_RESIDUAL}"
    if np.exp(-n_modes * y) < _FIT_RESOLVABLE:
        return f"unresolvable: exp(-N y) < {_FIT_RESOLVABLE}"
    if y * n_modes < _FIT_MIN_GRIDS * np.pi:
        return f"under-resolved: y < {_FIT_MIN_GRIDS} grid spacings (pi / N)"
    return None


def build_track(trajectory: Trajectory,
                times: Sequence[float]) -> SingularityTrack:
    """Apply both estimators to the dense-output state at each of the
    given times, a block of states at a time (Trajectory.state_blocks):
    the block is denoised in one pass, and goes through u_from_v,
    strip_width_estimate and root_on_axis together.

    Unusable snapshots (roundoff-floored fits, unreachable roots,
    u-reconstruction failures) are marked NaN rather than extrapolated;
    snapshots without a root or a fit are counted per reason, and the
    seconds spent on the states, the fits and the roots are summed.
    """
    times = np.array(times, dtype=float)
    y_fit, y_root, res = (np.full(times.shape, np.nan) for _ in range(3))
    no_root, no_fit = Counter(), Counter()
    laps = [time.perf_counter()]
    for rows, states in trajectory.state_blocks(times):
        clean = _denoised(states)
        n = clean.shape[-1] // 2
        laps.append(time.perf_counter())
        u_coeffs, failed = u_from_v(clean)[1:]
        # a failed state's u is zero, and has no fit window
        fits = zip(failed, *strip_width_estimate(u_coeffs))
        for i, (error, y, residual, drop) in enumerate(fits, rows.start):
            drop = ("DivisorTooSmall in u_from_v" if error is not None
                    else drop or _fit_drop_reason(y, residual, n))
            if drop is None:
                y_fit[i], res[i] = y, residual
            else:
                no_fit[drop] += 1
        laps.append(time.perf_counter())
        y_root[rows], why = root_on_axis(clean)
        laps.append(time.perf_counter())
        no_root.update(reason for reason in why if reason is not None)
    seconds = np.sum(np.diff(laps).reshape(-1, 3), axis=0)
    return SingularityTrack(times, y_fit, y_root, res, dict(no_root),
                            dict(no_fit),
                            dict(zip(("states", "fit", "root"),
                                     seconds.tolist())))

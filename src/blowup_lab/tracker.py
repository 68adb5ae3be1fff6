"""Nearest-complex-singularity estimation from solver output.

Two independent estimators: (i) strip-width fitting on the decay rate
of the Fourier coefficients of u = 1/v (pole model |a_k| ~ C k^p e^{-ky}
with p = 1 for the leading second-order pole), and (ii) direct root
finding of v(iy) = 0 on the positive imaginary axis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .integrator import Trajectory, brentq
from .spectral import FourierField
from .pde import u_from_v

_EXP_LIMIT = 700.0
_ROUNDOFF = np.finfo(float).eps
# Re v(0) at or below _ON_AXIS * sum |c_k| is zero to roundoff
_ON_AXIS = 100.0 * _ROUNDOFF
# the axis scan: samples on (0, y_max], and the root tolerance in y
_SCAN_POINTS = 400
_ROOT_TOL = 1e-10
# the largest temporary of an axis evaluation, in bytes
_CHUNK_BYTES = 1 << 19
# states build_track reads and analyses together
_TRACK_BLOCK = 64


class TrackingError(Exception):
    pass


@dataclass
class SingularityTrack:
    times: np.ndarray
    y_fit: np.ndarray          # NaN where unusable
    y_root: np.ndarray         # NaN where unusable
    fit_residual: np.ndarray
    no_root: dict = field(default_factory=dict)   # TrackingError reason -> count
    no_fit: dict = field(default_factory=dict)    # dropped-fit reason -> count

    def usable_fit(self) -> np.ndarray:
        return np.isfinite(self.y_fit)

    def usable_root(self) -> np.ndarray:
        return np.isfinite(self.y_root)


def _roundoff_floor(coeffs: np.ndarray) -> float:
    """Magnitude below which a coefficient is roundoff of the largest."""
    return 100.0 * _ROUNDOFF * max(1.0, float(np.max(np.abs(coeffs))))


def fit_strip_width(u_field: FourierField,
                    k_range: tuple[int, int]) -> tuple[float, float, float]:
    """Least-squares fit log|a_k| = log C + log k - k y over k_range.

    The prefactor k^p is fixed at p = 1, the second-order pole's; the
    range is honoured as given, the caller having stopped it above the
    roundoff floor.  Returns (y, C, rms residual).
    """
    n = u_field.n_modes
    a = np.abs(u_field.coeffs[n + 1:])          # k = 1..N
    k_lo, k_hi = k_range
    k_hi = min(k_hi, n)
    if k_hi - k_lo + 1 < 8:
        raise TrackingError(
            f"k-range [{k_lo}, {k_hi}] too short (< 8 usable modes)")
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    ak = a[k_lo - 1:k_hi]
    if np.any(ak <= 0.0):
        raise TrackingError("zero coefficient inside k-range")
    rhs = np.log(ak) - np.log(k)
    design = np.column_stack([np.ones_like(k), -k])
    (log_c, y), res, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    fitted = design @ np.array([log_c, y])
    residual = float(np.sqrt(np.mean((fitted - rhs) ** 2)))
    return float(y), float(np.exp(log_c)), residual


def _decaying_range(log_mag: np.ndarray, n: int) -> tuple[int, int]:
    """Largest k still on the genuinely decaying part of the spectrum.

    A decaying spectrum keeps setting new running minima (modulo even/odd
    oscillation); the flat noise plateau of the time stepper does not.
    The scan stops after 8 modes without a new minimum.
    """
    current = log_mag[0]
    k_hi, gap = 1, 0
    for k in range(2, n + 1):
        if log_mag[k - 1] < current:
            current, k_hi, gap = log_mag[k - 1], k, 0
        else:
            gap += 1
            if gap >= 8:
                break
    k_hi -= 1               # the last minimum may already touch the plateau
    return max(8, k_hi // 2), k_hi


def strip_width_estimate(u_field: FourierField) -> tuple[float, float]:
    """Strip width from coefficient decay with an adaptive k-window.

    The window ends where the decaying spectrum meets the integrator noise
    plateau or the roundoff floor of its largest coefficient, whichever
    comes first, and starts at half that, avoiding low-k profile
    contamination.
    The fixed-p fit carries an O(1/k) bias from logarithmic corrections to
    the pole model; when the spectrum is resolved all the way to
    truncation, two half-window fits are extrapolated in 1/k to remove it.
    Returns (y, rms residual of the full-window fit).
    """
    n = u_field.n_modes
    a = np.abs(u_field.coeffs[n + 1:])
    log_mag = np.log(np.where(a > 0.0, a, 1e-300))
    k_lo, k_hi = _decaying_range(log_mag, n)
    # coefficients at roundoff bend the fitted decay and bias y low
    above = np.flatnonzero(a[:k_hi] > _roundoff_floor(u_field.coeffs))
    k_hi = int(above[-1]) + 1 if above.size else 0
    if k_hi - k_lo + 1 < 8:
        # one fixed message, so build_track counts these drops as one reason
        raise TrackingError("decaying k-range too short (< 8 usable modes)")
    y, _, residual = fit_strip_width(u_field, k_range=(k_lo, k_hi))
    if k_hi >= n - 2 and k_hi - k_lo + 1 >= 16:
        mid = k_lo + (k_hi - k_lo) // 2
        y1, _, _ = fit_strip_width(u_field, k_range=(k_lo, mid))
        y2, _, _ = fit_strip_width(u_field, k_range=(mid, k_hi))
        m1, m2 = 0.5 * (k_lo + mid), 0.5 * (mid + k_hi)
        y = (m2 * y2 - m1 * y1) / (m2 - m1)
    return float(y), float(residual)


def _denoised(coeffs: np.ndarray) -> np.ndarray:
    """Suppress integrator noise in the coefficient tail.

    Two artifacts would otherwise dominate the analytic continuation
    e^{+ky}: (i) roundoff-level coefficients anywhere in the tail, and
    (ii) a noise ramp in the last few modes, a tail that *increases*
    strongly towards the truncation boundary, which a genuine
    (decaying-tail) spectrum cannot do.  The stepper treats the
    diffusion term exactly, so it no longer leaves tolerance-level error
    there; the ramp test still fires on roundoff-level tails.
    """
    c = np.asarray(coeffs)
    n = (len(c) - 1) // 2
    mag = np.maximum(np.abs(c[n:]), np.abs(c[n::-1]))   # k = 0..n, both signs
    out = c.copy()
    k = n
    while k > n // 2 and mag[k] > 2.0 * mag[k - 1]:
        out[n + k] = 0.0
        out[n - k] = 0.0
        k -= 1
    return np.where(np.abs(out) > _roundoff_floor(out), out, 0.0)


class _AxisSeries:
    """Re v(iy) = Re c_0 + sum_k Re c_k e^{-ky} + sum_k Re c_{-k} e^{ky}
    and its slope d/dy Re v(iy) = sum_k k Re c_{-k} e^{ky}
    - sum_k k Re c_k e^{-ky} on the rows of an (m, 2N+1) block of
    coefficients, exact because e^{+-ky} is real, and per row the largest
    y before the growing part overflows (y_cap).

    The growing part is summed in log scale; a value whose largest
    log-exponent exceeds _EXP_LIMIT is NaN.  A row sums over k = 1..K,
    K its highest nonzero mode (its width), the zero modes below K
    included, so its values depend on nothing but the row.
    """

    def __init__(self, coeffs: np.ndarray):
        n = coeffs.shape[-1] // 2
        # k = 1..N and -1..-N, contiguous: numpy takes another route to
        # |c| for a reversed single row, which can differ in the last bit
        c_pos = coeffs[:, n + 1:]
        c_neg = np.ascontiguousarray(coeffs[:, n - 1::-1])
        self.k = np.arange(1, n + 1, dtype=float)
        mag = np.abs(c_neg)
        grows = mag > 0.0
        with np.errstate(divide="ignore"):
            self.log_mag = np.log(mag)                # -inf where c_-k = 0
        cos_phase = np.divide(c_neg.real, mag, out=np.zeros(mag.shape),
                              where=grows)
        # (c_0, the decaying and the growing weights) of Re v and of its
        # slope
        self.weights = ((coeffs[:, n].real, c_pos.real, cos_phase),
                        (np.zeros(len(coeffs)), -self.k * c_pos.real,
                         self.k * cos_phase))
        self.y_cap = np.min((_EXP_LIMIT - self.log_mag) / self.k, axis=1,
                            initial=np.inf)
        nonzero = (c_pos != 0) | grows
        self.width = np.where(nonzero.any(axis=1),
                              n - np.argmax(nonzero[:, ::-1], axis=1), 1)

    def __call__(self, rows: np.ndarray, y: np.ndarray,
                 slope: bool) -> np.ndarray:
        """Re v(iy), or its slope, at y[i, j] of row rows[i] of the
        block: an (r, s) array.  Rows of one width are summed together,
        in two (r, s, width) temporaries of at most _CHUNK_BYTES each."""
        out = np.empty(y.shape)
        width = self.width[rows]
        for w in np.unique(width):
            at = np.flatnonzero(width == w)
            step = max(1, _CHUNK_BYTES // (8 * w * y.shape[1]))
            for i in (at[j:j + step] for j in range(0, at.size, step)):
                r = rows[i]
                c, w_dec, w_gro = (a[r, :w] if a.ndim > 1 else a[r]
                                   for a in self.weights[slope])
                dec = y[i, :, None] * self.k[:w]              # ky
                gro = dec + self.log_mag[r, None, :w]   # ky + log|c_-k|
                over = np.max(gro, axis=-1) > _EXP_LIMIT
                np.exp(np.negative(dec, out=dec), out=dec)
                with np.errstate(over="ignore", invalid="ignore"):
                    np.exp(gro, out=gro)
                    dec *= w_dec[:, None]
                    gro *= w_gro[:, None]
                    out[i] = np.where(over, np.nan, c[:, None]
                                      + np.sum(dec, axis=-1)
                                      + np.sum(gro, axis=-1))
        return out


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
    axis = _AxisSeries(coeffs)
    roots, why = np.full(len(coeffs), np.nan), [None] * len(coeffs)

    def at(rows, y, slope):
        """Re v(iy), or its slope, of each of the rows at its own y."""
        return axis(rows, y[:, None], slope)[:, 0]

    y_max = np.minimum(axis.y_cap, 50.0) * 0.999
    for r in np.flatnonzero(~(y_max > 0)):
        why[r] = "no feasible y range"
    rows = np.flatnonzero(y_max > 0)
    ys = np.zeros((rows.size, _SCAN_POINTS + 1))
    ys[:, 1:] = np.linspace(y_max[rows] / _SCAN_POINTS, y_max[rows],
                            _SCAN_POINTS, axis=-1)
    vals = axis(rows, ys, slope=False)
    on_axis = vals[:, 0] <= _ON_AXIS * np.sum(np.abs(coeffs[rows]), axis=-1)
    roots[rows[on_axis]] = 0.0
    rows, ys, vals = rows[~on_axis], ys[~on_axis], vals[~on_axis]
    # each row's scan up to its first non-finite sample, its first sign
    # change there, between samples flip and flip + 1, and the strict
    # local minima i before it, i + 1 < end (strictly below the left
    # neighbour, so a plateau gets one search)
    finite = np.isfinite(vals)
    cut = np.where(finite.all(axis=1), ys.shape[1], np.argmin(finite, axis=1))
    j = np.arange(1, ys.shape[1])
    changes = (vals[:, 1:] > 0.0) != (vals[:, :-1] > 0.0)
    changes &= j < cut[:, None]
    flipped, flip = changes.any(axis=1), np.argmax(changes, axis=1)
    end = np.where(flipped, flip + 1, cut)
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
    lanes = np.arange(dip_row.size)
    lo = near[lanes, u]
    y_dip, _ = brentq(lambda y, k: at(rows[dip_row[k]], y, True), lo,
                      near[lanes, u + 1], 0.01 * _ROOT_TOL)
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


def build_track(trajectory: Trajectory, n_modes: int,
                times: Sequence[float]) -> SingularityTrack:
    """Apply both estimators to the dense-output state at each of the
    given times, _TRACK_BLOCK states at a time: each state is denoised
    once, and the block goes through u_from_v and root_on_axis together.

    Unusable snapshots (roundoff-floored fits, unreachable roots,
    u-reconstruction failures) are marked NaN rather than extrapolated;
    snapshots without a root or a fit are counted per reason.
    """
    times = np.array(times, dtype=float)
    y_fit, y_root, res = (np.full(times.shape, np.nan) for _ in range(3))
    no_root, no_fit = Counter(), Counter()
    states = trajectory.states_at(times)
    for lo in range(0, times.size, _TRACK_BLOCK):
        clean = FourierField(n_modes, [
            _denoised(FourierField(n_modes, state).coeffs)
            for state in islice(states, _TRACK_BLOCK)])
        u_field, failed = u_from_v(clean)[1:]
        for i, (u, error) in enumerate(zip(u_field.coeffs, failed), lo):
            if error is not None:
                drop = "DivisorTooSmall in u_from_v"
            else:
                try:
                    y, residual = strip_width_estimate(
                        FourierField(n_modes, u))
                    drop = _fit_drop_reason(y, residual, n_modes)
                except TrackingError as exc:
                    drop = str(exc)
            if drop is None:
                y_fit[i], res[i] = y, residual
            else:
                no_fit[drop] += 1
        y_root[lo:lo + len(failed)], why = root_on_axis(clean.coeffs)
        no_root.update(reason for reason in why if reason is not None)
    return SingularityTrack(times, y_fit, y_root, res, dict(no_root),
                            dict(no_fit))

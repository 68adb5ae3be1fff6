"""Nearest-complex-singularity estimation from solver output.

Two independent estimators: (i) strip-width fitting on the decay rate
of the Fourier coefficients of u = 1/v (pole model |a_k| ~ C k^p e^{-ky}
with p = 1 for the leading second-order pole), and (ii) direct root
finding of v(iy) = 0 on the positive imaginary axis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .integrator import Trajectory, brentq
from .spectral import DivisorTooSmall, FourierField
from .pde import u_from_v

_EXP_LIMIT = 700.0
_ROUNDOFF = np.finfo(float).eps
# Re v(0) at or below _ON_AXIS * sum |c_k| is zero to roundoff
_ON_AXIS = 100.0 * _ROUNDOFF
# the axis scan: samples on (0, y_max], and the root tolerance in y
_SCAN_POINTS = 400
_ROOT_TOL = 1e-10


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


def _axis_real(coeffs: np.ndarray, n: int):
    """Evaluators of Re v(iy) = Re c_0 + sum_k Re c_k e^{-ky}
    + sum_k Re c_{-k} e^{ky} and of its slope d/dy Re v(iy)
    = sum_k k Re c_{-k} e^{ky} - sum_k k Re c_k e^{-ky}, over the nonzero
    modes only, exact because e^{+-ky} is real, plus the largest y before
    the growing part overflows.

    The growing part is summed in log scale; rows whose largest
    log-exponent exceeds _EXP_LIMIT are NaN in both.
    """
    k = np.arange(1, n + 1, dtype=float)
    c_pos, c_neg = coeffs[n + 1:], coeffs[n - 1::-1]     # k = 1..N, -1..-N
    dec, gro = np.nonzero(c_pos)[0], np.nonzero(c_neg)[0]
    k_dec, re_dec = k[dec], c_pos[dec].real
    k_gro, mag = k[gro], np.abs(c_neg[gro])
    log_mag, cos_phase = np.log(mag), c_neg[gro].real / mag
    c0 = coeffs[n].real
    y_cap = float(np.min((_EXP_LIMIT - log_mag) / k_gro)) if gro.size else np.inf

    def evaluator(c, w_dec, w_gro):
        def f(y):
            yk = np.asarray(y, dtype=float)[..., None]
            expo = yk * k_gro + log_mag
            with np.errstate(over="ignore", invalid="ignore"):
                val = c + np.exp(-yk * k_dec) @ w_dec + np.exp(expo) @ w_gro
            return np.where(
                np.max(expo, axis=-1, initial=-np.inf) > _EXP_LIMIT,
                np.nan, val)
        return f

    return (evaluator(c0, re_dec, cos_phase),
            evaluator(0.0, -k_dec * re_dec, k_gro * cos_phase), y_cap)


def root_on_axis(v_field: FourierField) -> float:
    """Smallest y >= 0 with Re v(iy) = 0, polished by Brent's root
    finder (integrator.brentq) inside the first sign change of a scan up
    to the largest y the coefficient amplification allows.  Re v(0) at or
    below the roundoff of the coefficient sum means the singularity has
    already reached the real axis: the root is 0 (a root inside that
    roundoff would only mark the noise).

    A dip below zero narrower than the scan spacing shows only as a local
    minimum of the scan before its first sign change.  Where the slope
    goes from < 0 to >= 0 next to it, brentq finds the dip's bottom as the
    slope's root and, if that is at or below zero, the root before it; a
    minimum without such a change is finer than the scan, and unsearched.
    """
    coeffs = _denoised(v_field.coeffs)
    g, slope, y_cap = _axis_real(coeffs, v_field.n_modes)
    y_max = min(y_cap, 50.0) * 0.999
    if not np.isfinite(y_max) or y_max <= 0:
        raise TrackingError("no feasible y range")
    ys = np.concatenate(
        ([0.0], np.linspace(y_max / _SCAN_POINTS, y_max, _SCAN_POINTS)))
    vals = g(ys)
    if vals[0] <= _ON_AXIS * np.sum(np.abs(coeffs)):
        return 0.0
    bad = np.flatnonzero(~np.isfinite(vals))
    positive = vals[:bad[0] if bad.size else vals.size] > 0.0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    v = vals[:flips[0] + 1 if flips.size else positive.size]
    # (strictly below its left neighbour, so a plateau gets one search)
    for i in 1 + np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])):
        s = slope(ys[i - 1:i + 2])
        up = np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))
        if not up.size:
            continue
        lo = ys[i - 1 + up[0]]
        y_dip = brentq(slope, lo, ys[i + up[0]], 0.01 * _ROOT_TOL)[0]
        if g(y_dip) <= 0.0:
            return float(brentq(g, lo, y_dip, 0.01 * _ROOT_TOL)[0])
    if not flips.size:
        raise TrackingError("no sign change of Re v(iy) on the axis")
    return float(brentq(g, ys[flips[0]], ys[flips[0] + 1],
                        0.01 * _ROOT_TOL)[0])


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
    given times.

    Unusable snapshots (roundoff-floored fits, unreachable roots,
    u-reconstruction failures) are marked NaN rather than extrapolated;
    snapshots without a root or a fit are counted per reason.
    """
    yf, yr, res = [], [], []
    no_root, no_fit = Counter(), Counter()
    for state in trajectory.states_at(times):
        fld = FourierField(n_modes, state)
        y_root = np.nan
        try:
            clean = FourierField(n_modes, _denoised(fld.coeffs))
            _, u_field = u_from_v(clean)
            y_fit, residual = strip_width_estimate(u_field)
            drop = _fit_drop_reason(y_fit, residual, n_modes)
        except TrackingError as exc:
            drop = str(exc)
        except DivisorTooSmall:
            drop = "DivisorTooSmall in u_from_v"
        if drop is not None:
            y_fit, residual = np.nan, np.nan
            no_fit[drop] += 1
        try:
            y_root = root_on_axis(fld)
        except TrackingError as exc:
            no_root[str(exc)] += 1
        yf.append(y_fit)
        yr.append(y_root)
        res.append(residual)
    return SingularityTrack(np.array(times, dtype=float), np.array(yf),
                            np.array(yr), np.array(res), dict(no_root),
                            dict(no_fit))


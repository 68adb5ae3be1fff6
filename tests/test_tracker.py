"""Singularity estimators: strip-width fits, axis root finding,
denoising, terminal regression."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab import integrator, tracker
from blowup_lab.pde import initial_field, solve_to_blowup, u_from_v
from blowup_lab.tracker import (_axis_series, _decaying_range, _denoised,
                                _fit_drop_reason, build_track,
                                root_on_axis, strip_width_estimate,
                                SingularityTrack)
from paper_oracle import (TooFewSamples, impingement_regression,
                          impingement_slope, u_initial_coeff)
from run_defaults import model_params
import tracker_oracle


def axis_of(coeffs):
    """Re v(iy) and its slope, at a number or an array of y, and y_cap of
    one state's coefficients (a block of one row)."""
    (y_cap,), axis = _axis_series(np.asarray(coeffs)[None])
    row = np.zeros(1, int)

    def evaluator(slope):
        def f(y):
            out = axis(row, np.atleast_1d(np.asarray(y, float))[None],
                       slope)[0]
            return out if np.ndim(y) else float(out[0])
        return f

    return evaluator(False), evaluator(True), float(y_cap)


class NoRoot(Exception):
    """root_of's row has no axis root; the message is root_on_axis's
    reason."""


def root_of(c):
    """The axis root of one state as build_track takes it: denoised, and
    a block of one row; NoRoot where the row has none."""
    y, why = root_on_axis(_denoised(c)[None])
    if why[0] is not None:
        raise NoRoot(why[0])
    return float(y[0])


def pole_model_field(n, y, c0=1.0, p=1.0, plateau=0.0):
    """|a_k| = c0 * k^p * e^{-k y}, symmetric, k >= 1, down to a noise
    plateau."""
    c = np.zeros(2 * n + 1, dtype=complex)
    k = np.arange(1, n + 1)
    a = np.maximum(c0 * k ** p * np.exp(-k * y), plateau)
    c[n + 1:] = a
    c[:n] = a[::-1]
    c[n] = 1.0
    return c


def test_fit_recovers_synthetic_pole_decay():
    f = pole_model_field(64, 0.7, c0=3.0)
    (y,), (res,), why = strip_width_estimate(f[None])
    assert why == [None]
    assert y == pytest.approx(0.7, abs=1e-10)
    assert res < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 1.2), st.floats(0.5, 5.0))
def test_fit_recovery_property(y_true, c0):
    # a spectrum of u decays from its first mode: below the peak of
    # k e^{-k y} the planted modes grow by 1.1 a mode towards k = 1, so
    # that the decaying range starts there.  N = 256, so that e^{-0.05 k}
    # decays enough to fit; a faster decay meets a noise plateau, and the
    # window stops there.  Where it reaches the truncation instead, the
    # two half windows' extrapolation keeps y as well
    n, top = 256, math.ceil(1.0 / y_true) + 1
    f = pole_model_field(n, y_true, c0=c0, plateau=1e-15)
    f[n + 1:n + top] = f[n + top] * 1.1 ** np.arange(top - 1, 0, -1)
    f[n - top + 1:n] = f[n + 1:n + top][::-1]
    (y,), _, why = strip_width_estimate(f[None])
    assert why == [None]
    assert y == pytest.approx(y_true, rel=1e-6)


def test_fit_recovers_exact_reciprocal_coefficients():
    # exact reciprocal-field coefficients, times |k| to give them the
    # fit's k^1 prefactor, carry no FFT noise: down to a noise plateau
    # below the roundoff floor, the window the estimate picks recovers
    # the exact strip width
    alpha, eps, n = 1.0, 0.5, 64
    c = np.zeros(2 * n + 1, dtype=complex)
    for k in range(-n, n + 1):
        c[n + k] = max(abs(k) * u_initial_coeff(k, alpha, eps), 1e-17)
    (y,), (res,), why = strip_width_estimate(c[None])
    assert why == [None]
    assert y == pytest.approx(math.acosh(alpha / eps), rel=1e-12)
    assert res < 1e-10


def test_block_fit_matches_one_least_squares_fit_per_row():
    # one centred pass over the block gives each row the fit that
    # np.linalg.lstsq gives it alone, over the row's own window
    n = 64
    rng = np.random.default_rng(8)
    k_lo = rng.integers(1, 40, 12)
    k_hi = k_lo + rng.integers(7, 25, 12)
    z = (rng.uniform(-2.0, 2.0, (12, 1))
         - rng.uniform(0.05, 1.5, (12, 1)) * np.arange(1, n + 1)
         + 0.1 * rng.standard_normal((12, n)))
    y, res = tracker._fit_windows(z, k_lo, k_hi)
    for r, (lo, hi) in enumerate(zip(k_lo, k_hi)):
        k = np.arange(lo, hi + 1)
        design = np.column_stack([np.ones(k.size), -k])
        (log_c, y_row), *_ = np.linalg.lstsq(design, z[r, lo - 1:hi],
                                             rcond=None)
        fitted = design @ np.array([log_c, y_row])
        assert y[r] == pytest.approx(y_row, rel=1e-12)
        assert res[r] == pytest.approx(
            np.sqrt(np.mean((fitted - z[r, lo - 1:hi]) ** 2)), rel=1e-12)


def test_decaying_range_stops_at_noise_plateau():
    n = 64
    k = np.arange(1, n + 1)
    a = np.exp(-0.5 * k)
    a = np.maximum(a, 1e-12)        # noise plateau from k ~ 55
    (k_lo,), (k_hi,) = _decaying_range(np.log(a)[None])
    assert 45 <= k_hi <= 56
    assert k_lo == max(8, k_hi // 2)


def test_strip_width_estimate_ignores_noise_plateau():
    n = 64
    k = np.arange(1, n + 1)
    a = 2.0 * k * np.exp(-0.9 * k)       # meets the plateau near k ~ 38
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n + 1:] = np.maximum(a, 1e-13)
    c[:n] = c[n + 1:][::-1]
    c[n] = 1.0
    (y,), (res,), why = strip_width_estimate(c[None])
    assert why == [None]
    assert y == pytest.approx(0.9, rel=0.01)
    assert res < 0.05


def test_strip_width_estimate_gives_a_zero_coefficient_as_its_reason():
    # e^{-0.2 k} with mode 21 zero and mode 26 subnormal: both are new
    # running minima, so the decaying window runs past them, and the zero
    # stays inside it, below the last mode above the roundoff floor; the
    # same row without them is fitted
    n = 64
    a = np.exp(-0.2 * np.arange(1, n + 1))
    c = np.zeros((2, 2 * n + 1), dtype=complex)
    c[:, n + 1:], c[:, :n], c[:, n] = a, a[::-1], 1.0
    c[0, n + 21], c[0, n + 26] = 0.0, 1e-310
    c[0, n - 21], c[0, n - 26] = 0.0, 1e-310
    y, res, why = strip_width_estimate(c)
    assert why == ["zero coefficient inside k-range", None]
    assert np.isnan(y[0]) and np.isnan(res[0])
    assert y[1] == pytest.approx(0.2, rel=0.01) and res[1] < 0.05


def test_denoised_trims_boundary_ramp_and_floor():
    n = 64
    c = pole_model_field(n, 0.3)
    # growing noise ramp in the last two modes (each > 2x its inward
    # neighbour, genuine a_62 ~ 5e-7 is left alone)
    c[n + n - 1:] = [1e-5, 1e-3]
    c[:2] = [1e-3, 1e-5]
    # an isolated coefficient below the roundoff floor is zeroed too
    c[n + 55] = c[n - 55] = 1e-20
    out = _denoised(c)
    assert np.all(out[n + n - 1:] == 0.0)
    assert np.all(out[:2] == 0.0)
    assert out[n + 55] == out[n - 55] == 0.0
    # genuine mid-band coefficients survive
    assert out[n + 10] == c[n + 10]
    assert out[n + n - 2] == c[n + n - 2]


def synthetic_rows(n):
    """Coefficient rows the block passes must treat as the row oracle
    does: a decay onto a noise plateau, a decay ending in a growing ramp,
    a ramp over the whole upper half, a decay onto an all-zero tail and a
    row of width 1."""
    k = np.arange(1, n + 1)
    noise = 1.0 + 0.5 * np.random.default_rng(5).standard_normal(n)
    ramp = np.exp(-0.5 * k)
    ramp[-3:] = [1e-3, 1e-2, 1e-1]
    tails = [np.maximum(np.exp(-0.7 * k), 1e-9 * noise), ramp,
             1e-20 * 2.5 ** k, np.where(k <= 12, np.exp(-0.3 * k), 0.0),
             np.where(k == 1, 0.4, 0.0)]
    rows = np.zeros((len(tails), 2 * n + 1), dtype=complex)
    rows[:, n] = 1.0
    for row, tail in zip(rows, tails):
        row[n + 1:] = tail * (-1.0) ** k
        row[:n] = row[n + 1:][::-1]
    return rows


def test_block_denoise_and_window_match_the_row_oracle(small_solve):
    # the block passes give each row the bits of the row-by-row loops, on
    # the solve's states and on the synthetic rows, and on u's spectra
    p, traj = small_solve
    n = p.n_modes
    times = np.union1d(traj.times,
                       np.linspace(0.0, traj.times[-1], 150, endpoint=False))
    block = np.concatenate([np.array(list(traj.states_at(times))),
                            synthetic_rows(n)])
    clean = _denoised(block)
    assert clean.tobytes() == np.array(
        [tracker_oracle.denoised(row) for row in block]).tobytes()
    # the ramps are cut: three modes, and the upper half down to N/2 + 1
    assert not np.any(clean[-4, -3:]) and np.all(clean[-4, -4:-3])
    assert not np.any(clean[-3, n + n // 2 + 1:])
    assert np.all(block[-3, n + n // 2 + 1:])
    windows = set()
    for rows in (block, u_from_v(clean)[1]):
        a = np.abs(rows[:, n + 1:])
        log_mag = np.log(np.where(a > 0.0, a, 1e-300))
        k_lo, k_hi = _decaying_range(log_mag)
        expected = [tracker_oracle.decaying_range(row, n) for row in log_mag]
        assert list(zip(k_lo.tolist(), k_hi.tolist())) == expected
        windows.update(expected)
    assert len(windows) >= 10


def test_axis_series_against_the_direct_sum():
    # Re v(iy) and its slope from the tracker's real weights and bases
    # against Re sum_k c_k e^{-ky} (and its y-derivative) summed directly
    # in complex arithmetic, on complex rows of mixed widths, at y <= 4,
    # inside every row's cap
    n, rng = 16, np.random.default_rng(5)
    widths = (1, 3, 7, 11, n, n)
    block = np.zeros((len(widths), 2 * n + 1), dtype=complex)
    for row, w in zip(block, widths):
        row[n - w:n + w + 1] = rng.standard_normal(2 * w + 1) \
            + 1j * rng.standard_normal(2 * w + 1)
    ys = rng.uniform(0.0, 4.0, (len(block), 9))
    _, axis = _axis_series(block)
    k = np.arange(-n, n + 1)
    terms = np.exp(-ys[..., None] * k)                       # (r, s, 2N+1)
    weight = np.abs(block)[:, None] * np.exp(ys[..., None] * np.abs(k))
    eps = np.finfo(float).eps
    for slope, factor in ((False, 1.0), (True, -k)):
        direct = np.einsum("rsk,rk->rs", terms * factor, block).real
        bound = 100.0 * eps * np.sum(weight * np.abs(factor), axis=-1)
        got = axis(np.arange(len(block)), ys, slope)
        assert np.all(np.abs(got - direct) <= bound)


def test_axis_value_and_root_on_exact_initial_data():
    # v = alpha - eps cos x gives v(iy) = alpha - eps cosh(y), with root
    # at y = arccosh(alpha/eps)
    p = model_params(0.25, 0.1, n_modes=32)
    f = initial_field(p)
    y_ref = math.acosh(0.25 / 0.1)
    re_v, slope, _ = axis_of(f)
    assert re_v(1.0) == pytest.approx(0.25 - 0.1 * math.cosh(1.0))
    assert slope(1.0) == pytest.approx(-0.1 * math.sinh(1.0))
    assert root_of(f) == pytest.approx(y_ref, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.05, 3000.0, exclude_min=True, exclude_max=True),
       st.floats(0.01, 30.0))
def test_root_on_exact_initial_data_property(ratio, alpha):
    # v(iy) = alpha - eps cosh(y) has its only root at arccosh(alpha/eps)
    eps = alpha / ratio
    f = initial_field(model_params(alpha, eps, n_modes=16))
    assert abs(root_of(f) - math.acosh(alpha / eps)) <= 1e-12


def symmetric_field(n, coeffs):
    """Real even field with c_{+-k} = coeffs[k] for each k in coeffs."""
    c = np.zeros(2 * n + 1, dtype=complex)
    for k, a in coeffs.items():
        c[n + k] = c[n - k] = a
    return c


def test_root_on_axis_returns_the_smaller_of_two_roots():
    # v(iy) = 1 - 1.2 cosh y + 0.21 cosh 2y = 0.42 C^2 - 1.2 C + 0.79 with
    # C = cosh y: roots at C = (1.2 -+ sqrt(1.44 - 1.68 * 0.79)) / 0.84
    f = symmetric_field(16, {0: 1.0, 1: -0.6, 2: 0.105})
    d = math.sqrt(1.44 - 1.68 * 0.79)
    y_small = math.acosh((1.2 - d) / 0.84)
    assert y_small == pytest.approx(0.2392, abs=1e-4)
    assert math.acosh((1.2 + d) / 0.84) == pytest.approx(1.2117, abs=1e-4)
    assert root_of(f) == pytest.approx(y_small, abs=1e-12)


# (bottom y0 of the dip, its half-width relative to y0): ys[14] = 1.74825
# is a scan sample, and 1.7 with 2.2e-3 is about d = 0.01 in cosh y
@pytest.mark.parametrize("y0, rel_width", [
    (0.3, 1e-4), (0.3, 1e-2), (1.7, 2.2e-3), (1.74825, 1e-3), (2.5, 3e-4),
    (3.3, 5e-3), (5.0, 1e-4), (5.0, 1e-2)])
def test_root_on_axis_finds_a_dip_narrower_than_the_scan(y0, rel_width):
    # v(iy) = (cosh y - C)^2 - d^2 = cosh(2y)/2 - 2 C cosh y + C^2 - d^2 + 1/2
    # with C = cosh y0 dips below zero only for cosh y in (C - d, C + d),
    # y within about y0 (1 -+ rel_width): narrower than the scan spacing
    # of 50/400, so at most one scan sample falls inside the dip
    big_c, d = math.cosh(y0), rel_width * y0 * math.sinh(y0)
    f = symmetric_field(16, {0: big_c ** 2 - d * d + 0.5, 1: -big_c,
                             2: 0.25})
    y_root = math.acosh(big_c - d)
    # brentq's 1e-12 plus the roundoff of terms of size C^2 over the slope
    # 2 d sinh y at the root, which a thin dip makes small; at most 1e-10
    tol = min(1e-10, 1e-12 + 8.0 * np.finfo(float).eps * big_c ** 2
              / (d * math.sinh(y_root)))
    assert abs(root_of(f) - y_root) <= tol


def test_root_on_axis_overflow_before_sign_change_raises():
    # v(iy) = 1 + cosh(40 y) > 0: the growing mode overflows at
    # y ~ 700/40 before Re v(iy) could change sign
    f = symmetric_field(64, {0: 1.0, 40: 0.5})
    with pytest.raises(NoRoot, match="no sign change"):
        root_of(f)
    # past _EXP_LIMIT = 700 the value is NaN even where e^{40 y} would
    # still be finite in double precision (40 * 17.6 = 704 < 709)
    re_v, slope, y_cap = axis_of(f)
    assert y_cap == pytest.approx(17.5 - math.log(0.5) / 40.0)
    assert np.all(np.isnan(re_v(np.array([17.6, 30.0]))))
    assert np.all(np.isnan(slope(np.array([17.6, 30.0]))))


def test_root_on_axis_no_root():
    # constant-dominated field with tiny symmetric perturbation: v(iy)
    # stays positive on the reachable axis
    n = 16
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = 1.0
    with pytest.raises(NoRoot):
        root_of(c)


@pytest.mark.parametrize("coeffs", [{0: 1.0}, {0: 1.0, 40: 1.0}],
                         ids=["constant", "decay-to-plateau"])
def test_root_on_axis_searches_a_flat_scan_at_most_once(monkeypatch, coeffs):
    # Re v(iy) = 1, and 1 + e^{-40 y}, which reaches exactly 1.0 after a
    # few scan samples: tied samples are not one local minimum each
    n = 64
    c = np.zeros(2 * n + 1, dtype=complex)
    for k, a in coeffs.items():
        c[n + k] = a
    # with no sign change on the axis, every lane brentq searches is a
    # dip: count the lanes of each call
    searches, search = [], tracker.brentq

    def counted(f, a, b, xtol):
        searches.append(len(a))
        return search(f, a, b, xtol)

    monkeypatch.setattr(tracker, "brentq", counted)
    with pytest.raises(NoRoot, match="no sign change"):
        root_of(c)
    assert sum(searches) <= 1


def test_impingement_regression_recovers_synthetic_slope():
    d = np.logspace(-8, -4, 30)
    y = np.sqrt(8.0 * d * np.log(1.0 / d))
    assert impingement_regression(d, y) == pytest.approx(8.0, rel=1e-6)
    with pytest.raises(TooFewSamples):
        impingement_regression(d[:3], y[:3])


def test_impingement_slope_window_selection():
    t_c, eps = 1.0, 1e-3
    t = np.linspace(t_c - 10 * eps, t_c - 0.1 * eps, 50)
    d = t_c - t
    y = np.sqrt(8.0 * d * np.log(1.0 / d))
    track = SingularityTrack(times=t, y_fit=np.full_like(t, np.nan),
                             y_root=y, fit_residual=np.full_like(t, np.nan))
    assert impingement_slope(track, t_c, eps) == pytest.approx(8.0, rel=1e-3)
    empty = SingularityTrack(times=t, y_fit=np.full_like(t, np.nan),
                             y_root=np.full_like(t, np.nan),
                             fit_residual=np.full_like(t, np.nan))
    with pytest.raises(TooFewSamples):
        impingement_slope(empty, t_c, eps)


@pytest.fixture(scope="module")
def small_solve():
    p = model_params(0.25, 0.1, n_modes=32, rtol=1e-10, atol=1e-10)
    return p, solve_to_blowup(p)


def test_a_state_keeps_its_bits_in_any_block(small_solve, monkeypatch):
    # a state's root, the reason it has none and its fit come out the same
    # to the bit whether the grid is read in blocks of 1, 7 or 64 states:
    # neither its neighbours nor the padding of their modes reach it
    p, traj = small_solve
    times = np.union1d(traj.times,
                       np.linspace(0.0, traj.times[-1], 150, endpoint=False))
    clean = np.array([_denoised(s) for s in traj.states_at(times)])
    roots, why = root_on_axis(clean)
    # rows of many widths, with a root, without one and on the axis
    k = np.abs(np.arange(-p.n_modes, p.n_modes + 1))
    assert len(set(np.max(k * (clean != 0), axis=1))) >= 10
    assert set(why) == {None, "no sign change of Re v(iy) on the axis"}
    assert np.count_nonzero(roots == 0.0) == 1
    fits = build_track(traj, times)
    for size in (1, 7, 64):
        parts = [root_on_axis(clean[i:i + size])
                 for i in range(0, len(clean), size)]
        assert np.concatenate([y for y, _ in parts]).tobytes() \
            == roots.tobytes()
        assert [w for _, ws in parts for w in ws] == why
        monkeypatch.setattr(integrator, "_SAMPLE_BLOCK", size)
        track = build_track(traj, times)
        assert track.y_root.tobytes() == roots.tobytes()
        assert track.y_fit.tobytes() == fits.y_fit.tobytes()
        assert track.fit_residual.tobytes() == fits.fit_residual.tobytes()
        assert (track.no_root, track.no_fit) == (fits.no_root, fits.no_fit)


def test_fit_drop_reasons():
    assert _fit_drop_reason(0.0, 0.02, 128) == "y <= 0"
    assert _fit_drop_reason(0.1, 0.3, 128) == "residual > 0.25"
    assert _fit_drop_reason(0.3, 0.02, 128).startswith("unresolvable")
    # at N = 128 two grid spacings are 2 pi / 128 = 0.049: near t_c at
    # alpha = 1, eps = 0.001 fits below that drift from the axis root by
    # up to 40 % (y_fit 0.0044 against y_root 0.0075)
    assert _fit_drop_reason(0.048, 0.02, 128).startswith("under-resolved")
    assert _fit_drop_reason(0.05, 0.02, 128) is None
    assert _fit_drop_reason(0.048, 0.02, 256) is None


def test_build_track_on_small_solve(small_solve):
    _, traj = small_solve
    track = build_track(traj, traj.times[::4])
    assert track.times[0] == 0.0
    y0 = track.y_root[0]
    assert y0 == pytest.approx(math.acosh(2.5), rel=1e-3)
    # the root track decreases towards impingement near t_c
    finite = np.isfinite(track.y_root)
    assert track.y_root[finite][-1] < y0
    # every snapshot without a root is counted under its reason
    missing = int(np.count_nonzero(~finite))
    assert sum(track.no_root.values()) == missing


def test_root_is_zero_once_v_reaches_the_axis(small_solve):
    # at the t = t_c row Re v(0) is roundoff around the event root (1e-16
    # here): the singularity is on the real axis, so the root is exactly
    # 0, not the root the roundoff puts at y ~ 1e-7 nor the next sign
    # change further up the axis (y ~ 0.2067)
    _, traj = small_solve
    track = build_track(traj, traj.times)
    assert track.y_root[-1] == 0.0
    # 4.3e-5 before t_c the root is still the first sign change up the axis
    near = build_track(traj, [0.161917625418158])
    assert near.y_root[0] == pytest.approx(0.0578, abs=1e-4)
    # every earlier row starts positive at y = 0, so its root is still the
    # first sign change of the scan
    for state in traj.states[:-1]:
        g, _, _ = axis_of(_denoised(state))
        assert g(0.0) > 0.0


def test_build_track_counts_every_dropped_fit(small_solve):
    _, traj = small_solve
    track = build_track(traj, traj.times[::2])
    usable = int(np.count_nonzero(track.usable_fit()))
    assert 0 < usable < track.times.size
    assert sum(track.no_fit.values()) == track.times.size - usable
    # the windows that reach the roundoff floor are too short to fit, and
    # fits past either resolution limit are dropped, each under its reason
    # (the y <= 0 and residual thresholds are held in
    # test_fit_drop_reasons: with the window stopped at the roundoff floor
    # no fit on this solve reaches them)
    assert {"decaying k-range too short (< 8 usable modes)",
            "unresolvable: exp(-N y) < 1e-14",
            "under-resolved: y < 2 grid spacings (pi / N)"} <= set(
                track.no_fit)


def test_track_roots_against_direct_complex_sum(small_solve):
    # oracle: v(iy) = sum_k c_k e^{-ky} summed directly in complex
    # arithmetic over the same denoised coefficients the tracker uses
    p, traj = small_solve
    n = p.n_modes
    k = np.arange(-n, n + 1)
    # every stored state, t_c included, plus a uniform grid before t_c
    times = np.union1d(traj.times,
                       np.linspace(0.0, traj.times[-1], 55, endpoint=False))
    track = build_track(traj, times)
    usable = np.flatnonzero(track.usable_root())
    assert usable.size > 30
    dips = 0
    for i in usable:
        c = _denoised(traj.state_at(times[i]))
        y = track.y_root[i]

        def re_v(ys):
            return (np.exp(-np.outer(np.atleast_1d(ys), k)) @ c).real

        # a root that no sign change of the axis scan brackets, the scan
        # sample after it still positive, comes from the dip search
        y_max = min(axis_of(c)[2], 50.0) * 0.999
        scan = np.linspace(y_max / tracker._SCAN_POINTS, y_max,
                           tracker._SCAN_POINTS)
        after = scan[scan > y]
        dips += bool(after.size) and re_v(after[0])[0] > 0.0

        # roundoff of the sum plus the slope times the brentq tolerance
        weight = np.abs(c) * np.exp(np.abs(k) * y)
        tol = (100.0 * np.finfo(float).eps * np.sum(weight)
               + 1e-12 * np.sum(np.abs(k) * weight))
        assert abs(re_v(y)[0]) <= tol
        # and it is the smallest root: no sign change on (0, y_root), an
        # empty interval at t_c, where the root is 0
        if y > 0.0:
            inside = re_v(np.linspace(0.0, y, 4002)[1:-1])
            assert np.all(inside > 0.0) or np.all(inside < 0.0)
    assert dips >= 1
    assert track.y_root[-1] == 0.0


def test_u_reconstruction_then_fit_matches_root(tmp_path=None):
    # closed-loop check at t = 0: the strip width of u = 1/v equals the
    # axis-root position of v
    p = model_params(0.25, 0.1, n_modes=64)
    f = initial_field(p)
    _, u_coeffs, failed = u_from_v(f)
    assert failed == [None]
    # exact reciprocal coefficients decay as rho^{-k} with no k-prefactor:
    # times |k| they take the fit's k^1 one
    k = np.abs(np.arange(-p.n_modes, p.n_modes + 1))
    u_k = k * u_coeffs
    # the reconstructed coefficients fall below the FFT noise floor past
    # k ~ 21: the row keeps the clean band k <= 18, where the window the
    # estimate picks stops
    u_k[k > 18] = 0.0
    (y_fit,), _, why = strip_width_estimate(u_k[None])
    assert why == [None]
    y_root = root_of(f)
    assert y_fit == pytest.approx(y_root, rel=1e-6)


def test_early_roots_sit_at_the_initial_singularity(solve_fine):
    # until t = 0.01 the nearest singularity stays within 1 % of its start,
    # arccosh(alpha / eps) = 7.60; an explicit stepper's 2.2e-12 noise in
    # the k = 128 mode once put usable roots at y ~ 0.22 for t ~ 0.005
    params, traj = solve_fine
    y_ref = math.acosh(params.alpha / params.epsilon)
    times = sorted([t for t in traj.times if t <= 0.01]
                   + list(np.linspace(0.0, 0.01, 41)))
    track = build_track(traj, times)
    usable = track.usable_root()
    assert np.count_nonzero(usable) >= 40
    assert np.all(np.abs(track.y_root[usable] - y_ref) <= 0.01 * y_ref)

"""Truncated Fourier series: transforms, point evaluation, and the
reference products and quotients of the test oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.spectral import (DivisorTooSmall, FourierField, GridValues,
                                 SizeMismatch, SpectralError, analyze,
                                 coeffs_to_grid, grid_points, grid_to_coeffs,
                                 padded_size, series_at, synthesize)
from spectral_oracle import convolve, differentiate, divide


def _field(n, **modes):
    c = np.zeros(2 * n + 1, dtype=complex)
    for k, v in modes.items():
        c[n + int(k)] = v
    return FourierField(n, c)


def cos_field(n, amp=1.0):
    return _field(n, **{"1": amp / 2.0, "-1": amp / 2.0})


@st.composite
def coeff_arrays(draw, n=8):
    vals = draw(st.lists(
        st.tuples(st.floats(-1, 1, allow_nan=False),
                  st.floats(-1, 1, allow_nan=False)),
        min_size=2 * n + 1, max_size=2 * n + 1))
    return np.array([complex(a, b) for a, b in vals])


def test_padded_size_is_power_of_two_and_large_enough():
    for n in (8, 21, 128, 200):
        p = padded_size(n)
        assert p >= 3 * n + 1
        assert p & (p - 1) == 0


def test_grid_points_span_minus_pi_to_pi():
    x = grid_points(8)
    assert x[0] == -np.pi
    assert np.allclose(np.diff(x), 2 * np.pi / 8)
    assert x[-1] < np.pi


@settings(max_examples=25, deadline=None)
@given(coeff_arrays())
def test_analyze_synthesize_round_trip(c):
    n = 8
    f = FourierField(n, c)
    for m in (2 * n + 1, 32, 64):
        g = analyze(synthesize(f, m), n)
        assert np.max(np.abs(g.coeffs - c)) < 1e-12


def test_round_trip_rejects_undersampled_grid():
    f = cos_field(8)
    with pytest.raises(SizeMismatch):
        synthesize(f, 10)
    with pytest.raises(SizeMismatch):
        analyze(GridValues(grid_points(10), np.zeros(10)), 8)


def test_differentiate_cos_gives_minus_sin():
    # d/dx cos x = -sin x = (i/2) e^{ix} - (i/2) e^{-ix}
    df = differentiate(cos_field(8), 1)
    assert df.coeffs[8 + 1] == pytest.approx(0.5j)
    assert df.coeffs[8 - 1] == pytest.approx(-0.5j)
    d2 = differentiate(cos_field(8), 2)
    assert d2.coeffs[8 + 1] == pytest.approx(-0.5)
    with pytest.raises(SpectralError):
        differentiate(cos_field(8), 3)


def test_convolve_cos_squared():
    # cos^2 x = 1/2 + cos(2x)/2
    f = cos_field(16)
    g = convolve(f, f)
    expect = np.zeros(33, dtype=complex)
    expect[16] = 0.5
    expect[18] = expect[14] = 0.25
    assert np.max(np.abs(g.coeffs - expect)) < 1e-14


def test_convolve_is_dealiased_at_the_truncation_boundary():
    # e^{iNx} * e^{iNx} has true wavenumber 2N; on an aliasing 2N+1-point
    # grid it would fold back into the retained band. The padded product
    # must instead be exactly zero after truncation to |k| <= N.
    n = 8
    f = _field(n, **{str(n): 1.0})
    g = convolve(f, f)
    assert np.max(np.abs(g.coeffs)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(coeff_arrays())
def test_divide_inverts_convolve(c):
    n = 8
    inner = 0.1 * c
    inner[:2] = inner[-2:] = 0.0     # keep f*g inside the retained band
    f = FourierField(n, inner)
    g = _field(n, **{"0": 3.0, "1": 0.5, "-1": 0.5})   # 3 + cos x, no zeros
    h = divide(convolve(f, g), g)
    # with f band-limited to |k| <= N-1 the product f*g fits in |k| <= N,
    # so dividing the truncated product must recover f to machine precision
    assert np.max(np.abs(h.coeffs - f.coeffs)) < 1e-10


def test_divide_raises_near_zero_divisor():
    n = 8
    g = _field(n, **{"0": 1.0, "1": 0.5, "-1": 0.5})   # 1 + cos x, zero at pi
    with pytest.raises(DivisorTooSmall):
        divide(_field(n, **{"0": 1.0}), g)


def test_series_at_matches_synthesize_and_alternating_sum():
    n = 8
    rng = np.random.default_rng(1)
    f = FourierField(n, rng.normal(size=17) + 1j * rng.normal(size=17))
    m = 32
    vals = synthesize(f, m)
    assert np.max(np.abs(series_at(f, vals.points) - vals.values)) < 1e-12
    # x = 0 gives sum_k c_k and x = pi gives sum_k c_k (-1)^k
    v0, vpi = series_at(f, [0.0, np.pi])
    assert v0 == pytest.approx(np.sum(f.coeffs), abs=1e-13)
    assert vpi == pytest.approx(np.sum(f.coeffs * (-1.0) ** f.wavenumbers),
                                abs=1e-13)


def test_raw_transforms_invert_each_other():
    rng = np.random.default_rng(2)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    vals = coeffs_to_grid(c, 8, 64)
    assert np.max(np.abs(grid_to_coeffs(vals, 8) - c)) < 1e-12


def test_non_finite_coefficients_rejected():
    c = np.zeros(9, dtype=complex)
    c[0] = np.nan
    with pytest.raises(SpectralError):
        FourierField(4, c)

"""Truncated Fourier series: transforms, Horner evaluation off the grid,
and the reference products and quotients of the test oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.spectral import (DivisorTooSmall, FourierField, SizeMismatch,
                                 SpectralError, analyze, coeffs_to_grid,
                                 grid_points, grid_to_coeffs, horner,
                                 node_shift, padded_size, synthesize)
from spectral_oracle import convolve, differentiate, divide


def _field(n, **modes):
    c = np.zeros(2 * n + 1, dtype=complex)
    for k, v in modes.items():
        c[n + int(k)] = v
    return FourierField(n, c)


def cos_field(n, amp=1.0):
    return _field(n, **{"1": amp / 2.0, "-1": amp / 2.0})


def horner_at(block, z, order=0):
    """sum_k (ik)^order c_k e^{ikz} of each row of an (r, 2N+1) block at
    the points z[i, j], by horner in e^{iz} and e^{-iz}."""
    n = block.shape[-1] // 2
    z = np.asarray(z, dtype=complex)
    k = np.arange(1, n + 1)
    weights = np.stack([(1j * k) ** order * block[:, n + 1:],
                        (-1j * k) ** order * block[:, n - 1::-1]])
    return horner(block[:, n] * (order == 0), weights,
                  np.exp([1j * z, -1j * z]))


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
        analyze(np.zeros(10), 8)


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


def test_horner_matches_synthesize_and_node_sums():
    n, m = 8, 32
    rng = np.random.default_rng(1)
    c = rng.normal(size=(1, 17)) + 1j * rng.normal(size=(1, 17))
    vals = coeffs_to_grid(c, m)
    assert np.max(np.abs(horner_at(c, grid_points(m)[None]) - vals)) < 1e-12
    # x = 0 gives sum_k c_k and x = pi gives sum_k (-1)^k c_k, the exact
    # sums that flatness and the continuation's |u(pi)| read
    v0, vpi = horner_at(c, [[0.0, np.pi]])[0]
    assert v0 == pytest.approx(np.sum(c), abs=1e-13)
    assert vpi == pytest.approx(np.sum(c * node_shift(n)), abs=1e-13)


N_SERIES = 16


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, N_SERIES), max_size=6),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 4.0))
def test_horner_against_direct_complex_sum(widths, seed, y_top):
    # v(z) = sum_k c_k e^{ikz} and v'(z) by Horner's rule in e^{iz} and
    # e^{-iz} against the direct complex sum, at z in both half-planes
    # with |Im z| <= 4, well inside the tracker's cap, where no term
    # overflows; on rows of mixed widths, always with one of width 1 and
    # one of width N
    n, rng = N_SERIES, np.random.default_rng(seed)
    widths = [1, n] + widths
    block = np.zeros((len(widths), 2 * n + 1), dtype=complex)
    for row, w in zip(block, widths):
        c = rng.standard_normal(2 * w + 1) \
            + 1j * rng.standard_normal(2 * w + 1)
        c *= 10.0 ** rng.uniform(-3.0, 1.0, c.size)
        c[1:-1] *= rng.uniform(size=c.size - 2) > 0.2   # zeros inside
        row[n - w:n + w + 1] = c
    z = rng.uniform(-np.pi, np.pi, (len(block), 9)) \
        + 1j * rng.uniform(-y_top, y_top, (len(block), 9))
    k = np.arange(-n, n + 1)
    terms = np.exp(1j * z[..., None] * k)                    # (r, s, 2N+1)
    weight = np.abs(block)[:, None] * np.exp(np.abs(z.imag[..., None] * k))
    eps = np.finfo(float).eps
    for order in (0, 1):
        factor = (1j * k) ** order
        padded = horner_at(block, z, order)
        direct = np.einsum("rsk,rk->rs", terms * factor, block)
        bound = 100.0 * eps * np.sum(weight * np.abs(factor), axis=-1)
        assert np.all(np.abs(padded - direct) <= bound)
        # a row gets the same bits alone as inside the block, whose
        # widest row sets how many modes the sums run over
        for r in range(len(block)):
            alone = horner_at(block[r:r + 1], z[r:r + 1], order)
            assert alone.tobytes() == padded[r:r + 1].tobytes()


def test_raw_transforms_invert_each_other():
    rng = np.random.default_rng(2)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    vals = coeffs_to_grid(c, 64)
    assert np.max(np.abs(grid_to_coeffs(vals, 8) - c)) < 1e-12


@pytest.mark.parametrize("n", [8, 32])
def test_single_mode_is_exactly_alternating_at_minus_pi(n):
    # e^{ikx} at x_0 = -pi is (-1)^k, with no roundoff from the node shift
    # (FFT sizes with a large prime factor add their own, so none here)
    for m in (2 * n + 1, padded_size(n)):
        for k in range(-n, n + 1):
            c = np.zeros(2 * n + 1, dtype=complex)
            c[n + k] = 1.0
            assert coeffs_to_grid(c, m)[0] == (-1.0) ** k, (m, k)


def test_transform_pair_on_a_block_matches_rows_and_horner():
    n, m = 16, padded_size(16)
    rng = np.random.default_rng(4)
    block = rng.normal(size=(3, 2 * n + 1)) + 1j * rng.normal(size=(3, 2 * n + 1))
    vals = coeffs_to_grid(block, m)
    assert vals.shape == (3, m)
    assert np.max(np.abs(vals - horner_at(block, np.tile(grid_points(m),
                                                          (3, 1))))) < 1e-13
    for c, row in zip(block, vals):
        assert np.max(np.abs(row - coeffs_to_grid(c, m))) < 1e-13
    back = grid_to_coeffs(vals, n)
    assert back.shape == block.shape
    for c, row, vrow in zip(block, back, vals):
        assert np.max(np.abs(row - grid_to_coeffs(vrow, n))) < 1e-13
        assert np.max(np.abs(row - c)) < 1e-13


def test_non_finite_coefficients_rejected():
    c = np.zeros(9, dtype=complex)
    c[0] = np.nan
    with pytest.raises(SpectralError):
        FourierField(4, c)

"""Truncated Fourier series on [-pi, pi).

A state is its coefficient array c_k, k = -N..N (position N + k), of
v(x) = sum_k c_k exp(ikx), complex, or real where v is real and even
(c_-k = c_k), and a block of states stacks such arrays along the leading
axes; every function reads N from the last axis.  This module holds the
transform pair between coefficients and equispaced grid samples, the
zero-padded grid size that dealiases quadratic products (3/2-rule), and
the one evaluator of a series at points off the grid, by Horner's rule.
"""

from __future__ import annotations

import numpy as np


class SpectralError(Exception):
    pass


class SizeMismatch(SpectralError):
    pass


class DivisorTooSmall(SpectralError):
    """Raised when the divisor field comes too close to zero on the grid.

    Signals that the state is at/near blow-up; callers integrating in
    time should rely on the event machinery instead of this quotient.
    """

    def __init__(self, min_abs: float, location: float):
        self.min_abs = min_abs
        self.location = location
        super().__init__(
            f"min |divisor| = {min_abs:.3e} at x = {location:.6f} "
            f"is below the division floor"
        )


def padded_size(n_modes: int) -> int:
    """Smallest power of two >= 3*N + 1 (dealiasing grid): scaling by a
    power of two is exact, so make_rhs folds its scalings into one."""
    p = 1
    while p < 3 * n_modes + 1:
        p *= 2
    return p


def grid_points(m: int) -> np.ndarray:
    """Equispaced collocation nodes x_j = -pi + 2*pi*j/M on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(m) / m


# ---------------------------------------------------------------------------
# the transform pair, along the last axis (nodes start at -pi)


def node_shift(n_modes: int) -> np.ndarray:
    """(-1)^k for k = -N..N: e^{-i pi k} = e^{i pi k} exactly, the factor
    that moves the DFT's nodes from x = 0 to x = -pi."""
    k = np.arange(-n_modes, n_modes + 1)
    return np.where(k % 2 == 0, 1.0, -1.0)


def synthesize(coeffs: np.ndarray, m: int) -> np.ndarray:
    """sum_k c_k e^{ikx_j} on the M nodes x_j = -pi + 2*pi*j/M: a
    (..., 2N+1) array of coefficients to (..., M) grid values."""
    n = coeffs.shape[-1] // 2
    if m < 2 * n + 1:
        raise SizeMismatch(f"M = {m} < 2N+1 = {2 * n + 1}")
    shifted = coeffs * node_shift(n)
    spec = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
    spec[..., :n + 1] = shifted[..., n:]        # wavenumbers 0..N
    spec[..., m - n:] = shifted[..., :n]        # wavenumbers -N..-1
    return np.fft.ifft(spec, norm="forward")


def analyze(values: np.ndarray, n_modes: int) -> np.ndarray:
    """DFT coefficients c_k = (1/M) sum_j values_j e^{-ikx_j}, k = -N..N:
    (..., M) grid values to a (..., 2N+1) array.  Exact for inputs
    band-limited to |k| <= N."""
    m, n = values.shape[-1], n_modes
    if m < 2 * n + 1:
        raise SizeMismatch(f"M = {m} < 2N+1 = {2 * n + 1}")
    spec = np.fft.fft(values, norm="forward")
    return np.concatenate([spec[..., m - n:], spec[..., :n + 1]],
                          axis=-1) * node_shift(n)


# horner's sums keep within HORNER_ROUNDOFF * sum_k |c_k| |w|^k of the
# exact ones: a value at or below that bound is roundoff
HORNER_ROUNDOFF = 100.0 * np.finfo(float).eps


def horner(c0: np.ndarray, weights: np.ndarray,
           bases: np.ndarray) -> np.ndarray:
    """(c0 + sum_k a_k w^k) + sum_k b_k w'^k, k = 1..N, at s points of
    each of r rows: c0 (r,), the weights (a_k, b_k) a (2, r, N) array and
    the bases (w, w') a (2, r, s) array; an (r, s) array in the dtype of
    the inputs.  With (c_0, c_k, c_-k) and (e^{iz}, e^{-iz}) it is
    sum_k c_k e^{ikz}, real or complex z.

    Both sums go by Horner's rule over every weight given.  A zero tail
    keeps each sum exactly 0 while the bases are finite, so a caller may
    cut a block's weights after its last nonzero mode, and each row's
    values still depend on nothing but the row.
    """
    acc = np.zeros(bases.shape, np.result_type(weights, bases))
    for k in reversed(range(weights.shape[2])):
        acc += weights[:, :, k, None]
        acc *= bases
    return c0[:, None] + acc[0] + acc[1]


DIVISION_FLOOR = 1e-13

"""Truncated Fourier series on [-pi, pi).

A field is the coefficient vector c_k, k = -N..N, of
v(x) = sum_k c_k exp(ikx).  This module holds the transform pair between
coefficients and equispaced grid samples, the zero-padded grid size that
dealiases quadratic products (3/2-rule), and direct evaluation of the
series at arbitrary real points.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FourierField:
    """Complex coefficients c_k indexed k = -N..N (array position N + k)
    of one state, or of a block of states along the last axis."""

    n_modes: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape[-1:] != (2 * self.n_modes + 1,):
            raise SizeMismatch(
                f"expected {2 * self.n_modes + 1} coefficients, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise SpectralError("non-finite coefficients")
        object.__setattr__(self, "coeffs", c)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n_modes, self.n_modes + 1)


# ---------------------------------------------------------------------------
# the transform pair, along the last axis (nodes start at -pi)


def node_shift(n_modes: int) -> np.ndarray:
    """(-1)^k for k = -N..N: e^{-i pi k} = e^{i pi k} exactly, the factor
    that moves the DFT's nodes from x = 0 to x = -pi."""
    k = np.arange(-n_modes, n_modes + 1)
    return np.where(k % 2 == 0, 1.0, -1.0)


def coeffs_to_grid(coeffs: np.ndarray, m: int) -> np.ndarray:
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


def grid_to_coeffs(values: np.ndarray, n_modes: int) -> np.ndarray:
    """DFT coefficients c_k = (1/M) sum_j values_j e^{-ikx_j}, k = -N..N:
    (..., M) grid values to a (..., 2N+1) array.  Exact for inputs
    band-limited to |k| <= N."""
    m, n = values.shape[-1], n_modes
    if m < 2 * n + 1:
        raise SizeMismatch(f"M = {m} < 2N+1 = {2 * n + 1}")
    spec = np.fft.fft(values, norm="forward")
    return np.concatenate([spec[..., m - n:], spec[..., :n + 1]],
                          axis=-1) * node_shift(n)


def analyze(values: np.ndarray, n_modes: int) -> FourierField:
    """Forward transform: values on grid_points(M) -> coefficients, row
    by row for a (..., M) block."""
    return FourierField(n_modes, grid_to_coeffs(values, n_modes))


def synthesize(f: FourierField, grid_size: int) -> np.ndarray:
    """The series' values on grid_points(grid_size), row by row for a
    block."""
    return coeffs_to_grid(f.coeffs, grid_size)


def series_at(f: FourierField, x) -> np.ndarray:
    """sum_k c_k e^{ikx} of one state summed directly at arbitrary real
    points x."""
    return np.exp(1j * np.outer(x, f.wavenumbers)) @ f.coeffs


DIVISION_FLOOR = 1e-13

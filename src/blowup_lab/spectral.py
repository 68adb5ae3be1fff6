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
    """Smallest power of two >= 3*N + 1 (dealiasing grid)."""
    p = 1
    while p < 3 * n_modes + 1:
        p *= 2
    return p


def grid_points(m: int) -> np.ndarray:
    """Equispaced collocation nodes x_j = -pi + 2*pi*j/M on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(m) / m


@dataclass(frozen=True)
class FourierField:
    """Complex coefficients c_k indexed k = -N..N (array position N + k)."""

    n_modes: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.n_modes + 1,):
            raise SizeMismatch(
                f"expected {2 * self.n_modes + 1} coefficients, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise SpectralError("non-finite coefficients")
        object.__setattr__(self, "coeffs", c)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n_modes, self.n_modes + 1)


@dataclass(frozen=True)
class GridValues:
    """Samples on the M equispaced nodes of [-pi, pi)."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if p.shape != v.shape:
            raise SizeMismatch("points and values length mismatch")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.points.size


# ---------------------------------------------------------------------------
# raw coefficient <-> grid helpers (used throughout; nodes start at -pi)


def coeffs_to_grid(coeffs: np.ndarray, n_modes: int, m: int) -> np.ndarray:
    """Evaluate sum_k c_k e^{ikx_j} on the M nodes x_j = -pi + 2*pi*j/M."""
    k = np.arange(-n_modes, n_modes + 1)
    # shift to nodes starting at -pi: c_k e^{ik(-pi)} then standard ifft
    shifted = coeffs * np.exp(-1j * np.pi * k)
    spec = np.zeros(m, dtype=complex)
    np.add.at(spec, k % m, shifted)
    return np.fft.ifft(spec) * m


def grid_to_coeffs(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Trapezoidal/DFT coefficients c_k = (1/M) sum_j values_j e^{-ik x_j}."""
    m = values.size
    spec = np.fft.fft(values) / m
    k = np.arange(-n_modes, n_modes + 1)
    return spec[k % m] * np.exp(1j * np.pi * k)


# ---------------------------------------------------------------------------
# operations


def analyze(values: GridValues, n_modes: int) -> FourierField:
    """Forward transform: grid samples -> coefficients c_{-N..N}.

    Exact for inputs band-limited to |k| <= N when M >= 2N+1.
    """
    m = values.size
    if m < 2 * n_modes + 1:
        raise SizeMismatch(f"M = {m} < 2N+1 = {2 * n_modes + 1}")
    return FourierField(n_modes, grid_to_coeffs(values.values, n_modes))


def synthesize(f: FourierField, grid_size: int) -> GridValues:
    """Series evaluation on grid_size equispaced nodes."""
    if grid_size < 2 * f.n_modes + 1:
        raise SizeMismatch(
            f"grid_size = {grid_size} < 2N+1 = {2 * f.n_modes + 1}"
        )
    vals = coeffs_to_grid(f.coeffs, f.n_modes, grid_size)
    return GridValues(grid_points(grid_size), vals)


def series_at(f: FourierField, x) -> np.ndarray:
    """sum_k c_k e^{ikx} summed directly at arbitrary real points x."""
    return np.exp(1j * np.outer(x, f.wavenumbers)) @ f.coeffs


DIVISION_FLOOR = 1e-13

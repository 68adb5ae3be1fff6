"""Reference field operations for the tests: the v-equation right-hand side
assembled from a spectral derivative, a dealiased product and a dealiased
quotient.  `pde.make_rhs` fuses the same steps into one coefficient-space
function; these slower, separate operations serve as its oracle.
"""

import numpy as np

from blowup_lab.spectral import (DIVISION_FLOOR, DivisorTooSmall,
                                 FourierField, SizeMismatch, SpectralError,
                                 coeffs_to_grid, grid_points, grid_to_coeffs,
                                 padded_size)


def _check_same_size(f: FourierField, g: FourierField) -> None:
    if f.n_modes != g.n_modes:
        raise SizeMismatch(f"n_modes mismatch: {f.n_modes} vs {g.n_modes}")


def differentiate(f: FourierField, order: int) -> FourierField:
    """Spectral derivative: c_k -> (ik)^order c_k, order in {1, 2}."""
    if order not in (1, 2):
        raise SpectralError(f"unsupported derivative order {order}")
    k = np.arange(-f.n_modes, f.n_modes + 1)
    return FourierField(f.n_modes, (1j * k) ** order * f.coeffs)


def convolve(f: FourierField, g: FourierField) -> FourierField:
    """Coefficients of the pointwise product fg, dealiased by zero padding."""
    _check_same_size(f, g)
    p = padded_size(f.n_modes)
    fv = coeffs_to_grid(f.coeffs, p)
    gv = coeffs_to_grid(g.coeffs, p)
    return FourierField(f.n_modes, grid_to_coeffs(fv * gv, f.n_modes))


def divide(f: FourierField, g: FourierField,
           floor: float = DIVISION_FLOOR) -> FourierField:
    """Coefficients of f/g via pointwise division on the padded grid.

    Raises DivisorTooSmall if min |g| on the padded grid drops below floor.
    """
    _check_same_size(f, g)
    p = padded_size(f.n_modes)
    fv = coeffs_to_grid(f.coeffs, p)
    gv = coeffs_to_grid(g.coeffs, p)
    mags = np.abs(gv)
    j = int(np.argmin(mags))
    if mags[j] < floor:
        raise DivisorTooSmall(float(mags[j]), float(grid_points(p)[j]))
    return FourierField(f.n_modes, grid_to_coeffs(fv / gv, f.n_modes))


def v_rhs(fld: FourierField, floor: float = DIVISION_FLOOR) -> FourierField:
    """v_xx - 1 - 2*(v_x)^2/v as a field operation."""
    vx = differentiate(fld, 1)
    nl = divide(convolve(vx, vx), fld, floor=floor)
    out = differentiate(fld, 2).coeffs - 2.0 * nl.coeffs
    out[fld.n_modes] -= 1.0
    return FourierField(fld.n_modes, out)

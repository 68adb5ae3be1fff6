"""Reference field operations for the tests: the v-equation right-hand side
assembled from a spectral derivative, a dealiased product and a dealiased
quotient, on coefficient arrays c_k, k = -N..N.  `pde.make_rhs` fuses the
same steps into one coefficient-space function; these slower, separate
operations serve as its oracle.
"""

import numpy as np

from blowup_lab.spectral import (DIVISION_FLOOR, DivisorTooSmall,
                                 SizeMismatch, SpectralError, analyze,
                                 grid_points, padded_size, synthesize)


def _check_same_size(f: np.ndarray, g: np.ndarray) -> None:
    if f.shape != g.shape:
        raise SizeMismatch(f"size mismatch: {f.shape} vs {g.shape}")


def differentiate(f: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative: c_k -> (ik)^order c_k, order in {1, 2}."""
    if order not in (1, 2):
        raise SpectralError(f"unsupported derivative order {order}")
    n = f.shape[-1] // 2
    return (1j * np.arange(-n, n + 1)) ** order * f


def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of the pointwise product fg, dealiased by zero padding."""
    _check_same_size(f, g)
    n = f.shape[-1] // 2
    p = padded_size(n)
    return analyze(synthesize(f, p) * synthesize(g, p), n)


def divide(f: np.ndarray, g: np.ndarray,
           floor: float = DIVISION_FLOOR) -> np.ndarray:
    """Coefficients of f/g via pointwise division on the padded grid.

    Raises DivisorTooSmall if min |g| on the padded grid drops below floor.
    """
    _check_same_size(f, g)
    n = f.shape[-1] // 2
    p = padded_size(n)
    fv, gv = synthesize(f, p), synthesize(g, p)
    mags = np.abs(gv)
    j = int(np.argmin(mags))
    if mags[j] < floor:
        raise DivisorTooSmall(float(mags[j]), float(grid_points(p)[j]))
    return analyze(fv / gv, n)


def v_rhs(c: np.ndarray, floor: float = DIVISION_FLOOR) -> np.ndarray:
    """v_xx - 1 - 2*(v_x)^2/v of one state's coefficients."""
    vx = differentiate(c, 1)
    out = differentiate(c, 2) - 2.0 * divide(convolve(vx, vx), c, floor=floor)
    out[c.shape[-1] // 2] -= 1.0
    return out

"""Two-mode Fourier truncation v ~ a(t) - b(t)*cos x of the reciprocal
heat equation, integrated to its breakdown b^2 = 2a^2, where its field
da/dt = (2ab^2 + 2a^2 - b^2)/(b^2 - 2a^2), db/dt = b(2a^2 - 3b^2)/(b^2 - 2a^2)
is singular.  In (log a, r = b/a, t) and a time tau with dt/dtau =
a(2 - r^2) > 0 before the breakdown (a Sundman rescaling) the field is
polynomial, the breakdown is the transversal root of 2 - r^2
(dr/dtau = 8 sqrt(2) a there) and t_c' is t at that root, its maximum.
"""

from __future__ import annotations

import math

import numpy as np

from .integrator import EventSpec, IntegratorConfig, Trajectory, integrate

def _field(y, tau):
    """d(log a, r, t)/dtau = (-(2ar^2 + 2 - r^2),
    -r(2a - 5ar^2 - 2 + r^2), a(2 - r^2)), of one state or, row by row,
    of a block (the breakdown's location reads one-row blocks); a row at
    a time keeps math.exp, whose bits np.exp does not always give."""
    if y.ndim > 1:
        return np.array([_field(row, tau) for row in y])
    a, r = math.exp(y[0]), y[1]
    r2 = r * r
    return np.array([-(2.0 * a * r2 + 2.0 - r2),
                     -r * (2.0 * a - 5.0 * a * r2 - 2.0 + r2),
                     a * (2.0 - r2)])


def solve_two_mode(alpha: float, epsilon: float,
                   cfg: IntegratorConfig) -> tuple[Trajectory, float]:
    """Integrate from (a, b)(0) = (alpha, epsilon) to the breakdown: the
    trajectory in tau, with states (log a, r, t), and t_c'."""
    y0 = np.array([math.log(alpha), epsilon / alpha, 0.0])
    # tau at the breakdown is 0.97-8.79 over the Table-1 grid
    tau_hi = math.log(alpha / epsilon) + 2.0 * alpha + 4.0
    breakdown = EventSpec(lambda y: float(2.0 - y[1] ** 2),
                          direction="decreasing", root_tol=1e-13)
    traj = integrate(_field, y0, 0.0, tau_hi, cfg, events=[breakdown])
    return traj, float(traj.states[-1][2])

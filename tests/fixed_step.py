"""Fixed-step propagation with the library's DOPRI5 step in Lawson form
(lin None steps with lin = 0, which is plain DOPRI5), and the observed
convergence order it yields: the validation harness of the integrator
tests."""

from typing import Callable, Optional, Sequence

import numpy as np

from blowup_lab.integrator import (IntegrationError, _attempt_step,
                                   _lawson_tables)


def integrate_fixed(rhs, y0, t0: float, t1: float, h: float,
                    lin: Optional[np.ndarray] = None) -> np.ndarray:
    """Propagate y' = lin * y + rhs(y, t) from t0 to t1 in steps of h."""
    y = np.atleast_1d(np.asarray(y0, dtype=complex))
    n = int(round((t1 - t0) / h))
    t, tables = t0, _lawson_tables(np.zeros(y.size) if lin is None else lin)
    for _ in range(n):
        k1 = rhs(y, t)
        y, _, _, ok = _attempt_step(rhs, t, y, h, k1, tables)
        if not ok:
            raise IntegrationError(f"rhs non-finite at t = {t}")
        t += h
    return y


def order_check(rhs, y0, t0: float, t1: float,
                exact: Callable[[float], np.ndarray],
                h_values: Sequence[float],
                lin: Optional[np.ndarray] = None) -> float:
    """Observed convergence order: least-squares slope of log err vs log h."""
    errs = []
    for h in h_values:
        yh = integrate_fixed(rhs, y0, t0, t1, h, lin)
        errs.append(np.max(np.abs(yh - np.atleast_1d(exact(t1)))))
    slope = np.polyfit(np.log(np.asarray(h_values, dtype=float)),
                       np.log(np.asarray(errs)), 1)[0]
    return float(slope)

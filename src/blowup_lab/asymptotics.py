"""Closed-form approximations: perturbation profile, blow-up time
estimates and their constants C1-C3 (C2 and C3 from power series of
the exponential integral), blow-up profiles and coefficient-decay laws,
singularity-trajectory formulas, and flatness laws.

All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the series for C2 and C3 give up (RuntimeError) after this many terms
_SERIES_TERMS = 1000


@dataclass(frozen=True)
class AsymptoticConstants:
    C1: float
    C2: float
    C3: float


def _ein_series(z: float) -> tuple[float, float]:
    """sum_{n>=1} z^n / (n n!) and sum_{n>=1} H_n z^n / n! for z > 0, H_n
    the n-th harmonic number: all terms positive, summed until neither
    sum changes."""
    s2 = s3 = harmonic = 0.0
    term = 1.0
    for n in range(1, _SERIES_TERMS + 1):
        term *= z / n
        harmonic += 1.0 / n
        n2, n3 = s2 + term / n, s3 + harmonic * term
        if n2 == s2 and n3 == s3 and math.isfinite(s3):
            return s2, s3
        s2, s3 = n2, n3
    raise RuntimeError(f"series for C2 and C3 at z = {z} did not converge "
                       f"in {_SERIES_TERMS} terms")


def constants(alpha: float) -> AsymptoticConstants:
    """Constants of the second-order blow-up time estimate.

    C1 = e^{-2a} log a.  C2 = e^{-2a} I2 and C3 = e^{-2a} I3, with
    I2 = int_0^a (e^{2s} - 1)/s ds = sum_{n>=1} (2a)^n / (n n!) and
    I3 = int_0^a (e^{-2s} - 1)/s ds = -Ein(2a)
       = -e^{-2a} sum_{n>=1} H_n (2a)^n / n!  (DLMF 6.2.3, 6.6).
    Both series have positive terms; the alternating series
    Ein(z) = sum_{n>=1} (-1)^{n+1} z^n / (n n!) cancels, 2.7e-12
    relative off at a = 8 and 1e-5 at a = 16.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    decay = math.exp(-2.0 * alpha)
    i2, ein_sum = _ein_series(2.0 * alpha)
    return AsymptoticConstants(C1=decay * math.log(alpha), C2=decay * i2,
                               C3=-decay * (decay * ein_sum))


def perturbation_v(x, t, alpha: float, epsilon: float):
    """First-timescale approximation v ~ alpha - t - eps*e^{-t}*cos x."""
    return alpha - t - epsilon * np.exp(-t) * np.cos(x)


def t_hat(alpha: float, epsilon: float) -> float:
    """Leading-order blow-up time estimate alpha - eps*e^{-alpha}."""
    return alpha - epsilon * math.exp(-alpha)


def t_tilde(alpha: float, epsilon: float) -> float:
    """Second-order estimate alpha - eps*e^{-alpha} - (2C1+C2+C3)*eps^2."""
    c = constants(alpha)
    return t_hat(alpha, epsilon) - (2.0 * c.C1 + c.C2 + c.C3) * epsilon ** 2


def v_timescale2(x, t, alpha: float, epsilon: float, t_c: float,
                 consts: AsymptoticConstants):
    """Second-timescale approximation of v for x = O(1), t <= t_c."""
    ea = math.exp(-alpha)
    s_half = np.sin(0.5 * x) ** 2
    s_full = np.sin(x) ** 2
    log_arg = (t_c - t) / epsilon + 2.0 * ea * s_half
    if np.any(log_arg <= 0.0):
        raise ValueError("log argument non-positive (past t_c at x = 0)")
    return ((t_c - t)
            + 2.0 * epsilon * ea * s_half
            + 2.0 * epsilon ** 2 * math.log(epsilon) * ea ** 2 * s_full
            + epsilon * (t - t_c) * ea * np.cos(x)
            + 2.0 * epsilon ** 2 * s_full
            * (ea ** 2 * np.log(log_arg) + consts.C1 + consts.C3))


def blowup_profile_global(x, alpha: float, epsilon: float,
                          consts: AsymptoticConstants):
    """Blow-up profile for x = O(1) (the second-timescale form at t = t_c)."""
    if np.any(x == 0.0):
        raise ValueError("x = 0 hits the log singularity")
    ea = math.exp(-alpha)
    s_half = np.sin(0.5 * x) ** 2
    s_full = np.sin(x) ** 2
    return (2.0 * epsilon * ea * s_half
            + 2.0 * epsilon ** 2 * s_full
            * (ea ** 2 * np.log(2.0 * epsilon * ea * s_half)
               + consts.C1 + consts.C3))


def blowup_profile_local(x, alpha: float, epsilon: float):
    """Blow-up profile for exponentially small x:
    eps*e^{-a}*x^2 / (2 - 8*eps*e^{-a}*log(x^2))."""
    if np.any(np.abs(x) >= 1.0) or np.any(x == 0.0):
        raise ValueError("requires 0 < |x| < 1")
    ea = math.exp(-alpha)
    return epsilon * ea * x ** 2 / (2.0 - 8.0 * epsilon * ea * np.log(x ** 2))


def coeff_decay_global(k, alpha: float, epsilon: float):
    """c_k(t_c) ~ 4*eps^2*e^{-2a}/k^3."""
    return 4.0 * epsilon ** 2 * math.exp(-2.0 * alpha) / k ** 3


def coeff_decay_local(k):
    """c_k(t_c) ~ 1/(16 k^3 log^2 k), independent of eps and alpha."""
    return 1.0 / (16.0 * k ** 3 * np.log(k) ** 2)


SINGULARITY_REGIMES = ("naive", "early", "late_first_scale",
                       "second_scale", "third_scale", "impingement")


def singularity_y(regime: str, t, alpha: float, epsilon: float, t_c: float):
    """Imaginary-axis singularity position y at the times t in the named
    regime, and the reason it is NaN at the times outside the regime's
    domain.

    The second and third scales are written in the inner time
    T = (t - t_c)/epsilon, negative before blow-up.  Regime selection is
    explicit; the formulas are overlays, not a composite.  Every regime
    but impingement scales with epsilon and takes no time at
    epsilon = 0.
    """
    if regime not in SINGULARITY_REGIMES:
        raise ValueError(f"unknown regime {regime!r}; one of "
                         f"{SINGULARITY_REGIMES}")
    t = np.asarray(t, dtype=float)
    y = np.full(t.shape, np.nan)
    if epsilon <= 0.0 and regime != "impingement":
        return y, "requires epsilon > 0"
    if regime == "naive":
        arg = (alpha - t) * np.exp(t) / epsilon
        inside, reason = arg >= 1.0, "arccosh argument < 1"
        y[inside] = np.arccosh(arg[inside])
    elif regime == "early":
        inside, reason = (t > 0.0) & (t < 1.0), "requires 0 < t < 1"
        s = t[inside]
        y[inside] = math.log(2.0 * alpha / epsilon) \
            + np.sqrt(2.0 * s * np.log(1.0 / s))
    elif regime == "late_first_scale":
        inside, reason = t < alpha, "requires t < alpha"
        y[inside] = math.log(2.0 / epsilon) + alpha + np.log(alpha - t[inside])
    elif regime == "second_scale":
        big_t = (t - t_c) / epsilon
        inside, reason = big_t <= 0.0, "requires T <= 0"
        mt, ea = -big_t[inside], math.exp(alpha)
        y[inside] = np.log(1.0 + ea * mt
                           + np.sqrt(2.0 * ea * mt + ea ** 2 * mt ** 2))
    elif regime == "third_scale":
        big_t = (t - t_c) / epsilon
        inside, reason = big_t < 0.0, "requires T < 0"
        mt = -big_t[inside]
        y[inside] = np.sqrt(2.0 * math.exp(alpha) * mt) \
            * np.sqrt(1.0 - 4.0 * epsilon * math.exp(-alpha) * np.log(mt))
    else:
        d = t_c - t
        inside, reason = (d > 0.0) & (d < 1.0), "requires 0 < t_c - t < 1"
        y[inside] = np.sqrt(8.0 * d[inside] * np.log(1.0 / d[inside]))
    return y, reason


def flatness_approx(t, alpha: float, epsilon: float):
    """f(t) ~ 4*a_1(t) = 2*eps*e^{-t}/(alpha - t)^2, away from blow-up."""
    if np.any(t >= alpha):
        raise ValueError("requires t < alpha")
    # a product: a scalar's ** 2 goes through pow(), which can differ from
    # an array's in the last bit
    return 2.0 * epsilon * np.exp(-t) / ((alpha - t) * (alpha - t))


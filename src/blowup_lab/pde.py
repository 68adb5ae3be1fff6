"""The reciprocal heat equation v_t = v_xx - 1 - 2(v_x)^2/v as a spectral
ODE system: right-hand side assembly, blow-up detection, u-reconstruction,
flatness, and post-blow-up continuation (noise-seeded or complex-time path).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import asymptotics, reduced
from .integrator import (EventSpec, IntegratorConfig, Trajectory, integrate,
                         integrate_path)
from .spectral import (DIVISION_FLOOR, DivisorTooSmall, analyze,
                       grid_points, node_shift, padded_size, synthesize)

# relative tolerance of the cross-check between the two flatness routes
_FLATNESS_CHECK_TOL = 1e-10
# amplitude of the imaginary seed; 1e-16 let roundoff pick the branch
_NOISE_AMPLITUDE = 1e-14


@dataclass(frozen=True)
class ModelParams:
    """One experiment: initial data v(x,0) = alpha - epsilon*cos(x)."""

    alpha: float
    epsilon: float
    n_modes: int
    integrator: IntegratorConfig

    def __post_init__(self):
        for name in ("alpha", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")
        if not (0.0 <= self.epsilon < self.alpha):
            raise ValueError("require 0 <= epsilon < alpha")
        if self.n_modes < 8:
            raise ValueError("n_modes must be >= 8")


def initial_field(params: ModelParams) -> np.ndarray:
    """The coefficients of v(x,0) = alpha - epsilon*cos(x): real and
    even (c_-k = c_k), so a solve from them steps in real arithmetic."""
    n = params.n_modes
    c = np.zeros(2 * n + 1)
    c[n] = params.alpha
    c[n + 1] = -params.epsilon / 2.0
    c[n - 1] = -params.epsilon / 2.0
    return c


def diffusion(n_modes: int) -> np.ndarray:
    """Diagonal of the diffusion term v_xx in coefficient space, -k^2:
    the linear part the integrator steps exactly (its `lin`)."""
    k = np.arange(-n_modes, n_modes + 1)
    return -(k * k).astype(float)


def make_rhs(params: ModelParams):
    """Coefficient-space nonlinear part -1 - 2*(v_x)^2/v of the
    v-equation, with the quotient formed on the zero-padded (dealiased)
    grid; the integrator adds the diffusion term as lin = diffusion(N).

    The quotient is formed on every state: the blow-up event, not the
    right-hand side, stops a solve where v reaches zero.  A stage with
    v = 0 and v_x != 0 on the grid comes out non-finite, which the
    stepper counts as a rejection.

    The right-hand side takes one state or a (..., 2N+1) block of states
    along the last axis; each row comes out as its own call would give it
    (a real block with a row that is not even takes the complex route as
    a whole).  The grid values are the unscaled inverse sums; the 2, the
    1/p, the node sign and the minus sign are one factor -2 (-1)^k / p,
    exact with p = padded_size(N) a power of two (barring under- and
    overflow).

    A real array whose halves mirror bit for bit holds the cosine
    coefficients of a real, even v, and so do its right-hand side and
    every stage the stepper forms from them: it goes through the real
    transforms on k = 0..N, and its result is real and mirrored exactly
    into -N..-1.  Every other array takes the complex route.
    """
    n = params.n_modes
    p = padded_size(n)
    k = np.arange(-n, n + 1)
    sign = node_shift(n)        # the grid starts at x = -pi
    # rows: spectra of v and of v_x on the padded grid
    shift = np.stack([sign, 1j * k * sign])
    # complex, as the spectrum it scales is: a float factor would be cast
    # to (s + 0i) on every call, which gives the same bits
    out_scale = (-2.0 * sign / p).astype(complex)
    hi = slice(0, n + 1)        # wavenumbers 0..n
    lo = slice(p - n, p)        # wavenumbers -n..-1
    half = p // 2 + 1           # the real transforms' wavenumbers 0..p/2

    def work(lead, real):
        """Padded spectra (and their 0..n, -n..-1 parts), grid values v
        and w = v_x (then v_x^2 / v in place) and the spectrum of w; the
        real route's spectra hold wavenumbers 0..p/2 alone, and its grid
        values are real."""
        size = half if real else p
        spec = np.zeros(lead + (2, size), dtype=complex)
        grid = np.empty(lead + (2, p), dtype=float if real else complex)
        return (spec[..., hi], spec[..., lo], spec, grid, grid[..., 0, :],
                grid[..., 1, :], np.empty(lead + (size,), dtype=complex))

    # a single state's, reused from call to call: [real]
    one = [work((), False), work((), True)]

    def rhs(c: np.ndarray, t) -> np.ndarray:
        lead = c.shape[:-1]
        if lead == (1,):        # state_at and every event sub-step: one row
            return rhs(c[0], t)[None]
        # c_-k = c_k bit for bit, so also -0.0 and 0.0 tell apart
        real = c.dtype == float and np.array_equal(
            c[..., :n].view(np.int64), c[..., :n:-1].view(np.int64))
        spec_hi, spec_lo, spec, grid, v, w, wf = (work(lead, real) if lead
                                                  else one[real])
        np.multiply(c[..., None, n:], shift[:, n:], out=spec_hi)
        if real:
            np.fft.irfft(spec, p, norm="forward", out=grid)
        else:
            np.multiply(c[..., None, :n], shift[:, :n], out=spec_lo)
            np.fft.ifft(spec, axis=-1, norm="forward", out=grid)
        np.multiply(w, w, out=w)
        # 0/0 (v = v_x = 0: at x = 0 in the step onto t_c, everywhere
        # when eps = 0) counts as 0, the quotient's value on nearby states
        # with v_x = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(w, v, out=w, where=w != 0)
        # a new array per call: the stepper keeps every stage
        if real:
            np.fft.rfft(w, out=wf)
            out = np.empty(lead + (2 * n + 1,))
            np.multiply(wf.real[..., hi], out_scale.real[n:],
                        out=out[..., n:])
            out[..., :n] = out[..., :n:-1]
        else:
            np.fft.fft(w, out=wf)
            out = np.empty(lead + (2 * n + 1,), dtype=complex)
            np.multiply(wf[..., hi], out_scale[n:], out=out[..., n:])
            np.multiply(wf[..., lo], out_scale[:n], out=out[..., :n])
        out.T[n] -= 1.0             # k = 0 of each state (a number for one)
        return out

    return rhs


def blowup_event() -> EventSpec:
    """v(0, t) = Re(sum_k c_k) crossing zero from above."""
    return EventSpec(lambda c: float(np.sum(c).real))


def solve_to_blowup(params: ModelParams) -> Trajectory:
    """Integrate until v(0,t) = 0: the trajectory ends at t_c, its last
    time, with the coefficients c_k, k = -N..N, there as its last state."""
    # v(0,.) decreases by ~alpha over [0, t_c]; generous horizon
    return integrate(make_rhs(params), initial_field(params), 0.0,
                     2.0 * params.alpha + 1.0, params.integrator,
                     events=[blowup_event()], lin=diffusion(params.n_modes))


def blowup_estimates(params: ModelParams) -> tuple[dict, dict]:
    """The paper's estimates of t_c by name (t_c', t_hat, t_tilde) and the
    integrations behind them: t_c' is the two-mode blow-up time, or alpha
    when epsilon = 0, where v = alpha - t exactly."""
    alpha, eps = params.alpha, params.epsilon
    t_c_prime, integrations = alpha, {}
    if eps > 0.0:
        two_mode, t_c_prime = reduced.solve_two_mode(alpha, eps,
                                                     params.integrator)
        integrations = {"two_mode": two_mode.stats}
    return {"t_c_prime": t_c_prime, "t_hat": asymptotics.t_hat(alpha, eps),
            "t_tilde": asymptotics.t_tilde(alpha, eps)}, integrations


def u_from_v(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """u = 1/v of one state or of an (m, 2N+1) block of them: its values
    on the padded grid (grid_points(M)), its coefficients, and for each
    state (one for a single state) None or the DivisorTooSmall that its
    |v| on the grid comes below DIVISION_FLOOR with; such a state's u is
    zero."""
    n = c.shape[-1] // 2
    p = padded_size(n)
    vals = synthesize(c, p)
    mags = np.abs(vals).reshape(-1, p)
    j = np.argmin(mags, axis=-1)
    low = mags[np.arange(j.size), j]
    x = grid_points(p)
    failed = [DivisorTooSmall(float(m), float(x[i]))
              if m < DIVISION_FLOOR else None for m, i in zip(low, j)]
    small = (low < DIVISION_FLOOR).reshape(vals.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):   # v = 0 in a row
        u_vals = np.divide(1.0, vals, out=vals)    # in place: v is not kept
    u_vals[small] = 0.0
    return u_vals, analyze(u_vals, n), failed


def flatness(c: np.ndarray) -> tuple[np.ndarray, list]:
    """Peak height f = u(0) - u(pi) of each row of an (m, 2N+1) block,
    cross-checked against 4*sum of odd a_k: f, NaN in a row without one,
    and per row None or why it has none (u_from_v's failure first)."""
    _, a, failed = u_from_v(c)
    n = c.shape[-1] // 2
    # v(0) = sum_k c_k and v(pi) = sum_k (-1)^k c_k; a failed row's may be 0
    v0, vpi = np.sum(c, axis=-1), np.sum(c * node_shift(n), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_point = (1.0 / v0 - 1.0 / vpi).real
    f_coeff = 4.0 * np.sum(a[:, n + 1::2], axis=-1).real
    apart = (np.abs(f_point - f_coeff)
             > _FLATNESS_CHECK_TOL * np.maximum(1.0, np.abs(f_point)))
    why = ["DivisorTooSmall in u_from_v" if error is not None
           else "flatness routes disagree" if off else None
           for error, off in zip(failed, apart)]
    return np.where([reason is None for reason in why], f_point, np.nan), why


def seed_imaginary_noise(c: np.ndarray, rng_seed: int) -> np.ndarray:
    """Add a real-x-valued imaginary perturbation i*eta(x), eta even.

    Coefficients of the perturbation are i*u_k with u_k ~ U(-amp, amp),
    amp = _NOISE_AMPLITUDE, iid for k = 0..N and u_{-k} = u_k, which
    preserves the Hermitian pairing of a purely imaginary-valued
    function.  The draws are random.Random(rng_seed)'s (Mersenne
    Twister), deterministic for a fixed non-negative rng_seed.
    """
    if rng_seed < 0:        # random.Random would quietly take |rng_seed|
        raise ValueError("expected non-negative integer")
    n = c.shape[-1] // 2
    rng = random.Random(rng_seed)
    u = np.array([rng.uniform(-_NOISE_AMPLITUDE, _NOISE_AMPLITUDE)
                  for _ in range(n + 1)])
    pert = np.concatenate([u[:0:-1], u])  # u_N..u_1, u_0, u_1..u_N
    return c + 1j * pert


def branch_sign(c: np.ndarray) -> int:
    """The sign of Im v(0) in the state c past t_c: -1 on the branch of
    the detour through the upper half-plane."""
    return 1 if float(np.sum(c).imag) >= 0.0 else -1


def continue_past_blowup(params: ModelParams, solve: Trajectory,
                         t_end: float, radius: float, rng_seed: int,
                         times: Sequence[float]) -> Trajectory:
    """Noise-seeded integration in real time through t_c, the solve's end.

    From the solve's state at t_c - radius, with the imaginary seed added,
    real time to t_end >= t_c + radius; the event is disarmed, and the
    seed lets the solution pass through v = 0 and turn complex.  The run
    keeps its dense output at the times, t_c + radius and t_end alone.
    """
    t_c = solve.times[-1]
    seeded = seed_imaginary_noise(solve.state_at(t_c - radius), rng_seed)
    return integrate(make_rhs(params), seeded, t_c - radius, t_end,
                     params.integrator, lin=diffusion(params.n_modes),
                     keep=[*times, t_c + radius, t_end])


def continue_complex_path(params: ModelParams, solve: Trajectory,
                          t_end: float, radius: float,
                          times: Sequence[float]) -> Trajectory:
    """Step around t_c, the solve's end, through the complex t-plane.

    From the solve's state at t_c - radius, two straight legs by way of
    t_c + i radius (integrate_path), then real time from t_c + radius to
    t_end >= t_c + radius (no step when equal); every integration counts
    into the stats of the real-time run it returns, which keeps its
    dense output at the times, t_c + radius and t_end alone.
    """
    t_c = solve.times[-1]
    rhs, lin = make_rhs(params), diffusion(params.n_modes)
    arc = integrate_path(rhs, solve.state_at(t_c - radius), t_c, radius,
                         params.integrator, lin)
    return integrate(rhs, arc.states[-1], t_c + radius, t_end,
                     params.integrator, lin=lin,
                     keep=[*times, t_c + radius, t_end], stats=arc.stats)

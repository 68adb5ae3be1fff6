"""The reciprocal heat equation v_t = v_xx - 1 - 2(v_x)^2/v as a spectral
ODE system: right-hand side assembly, blow-up detection, u-reconstruction,
flatness, and post-blow-up continuation (noise-seeded or complex-time path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import asymptotics, reduced
from .integrator import (EventSpec, IntegratorConfig, StiffnessOrSingularity,
                         Trajectory, integrate, integrate_path, semicircle)
from .spectral import (DIVISION_FLOOR, DivisorTooSmall, FourierField,
                       analyze, grid_points, node_shift, padded_size,
                       synthesize)

_EVENT_ROOT_TOL = 1e-13
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


@dataclass
class BlowupReport:
    t_c: float
    state_at_tc: FourierField
    # what each integration behind the report did, by name
    integrations: dict = field(default_factory=dict)


@dataclass
class ContinuationResult:
    # in real time, from t_c - radius (noise_seeded) or t_c + radius
    # (complex_path) to the end time
    trajectory: Trajectory
    method: str                      # noise_seeded | complex_path
    t_c: float
    radius: float                    # the run leaves the solve at t_c - radius
    solve: Trajectory                # the blow-up solve
    branch_sign: int = field(init=False)

    def __post_init__(self):
        # the sign of Im v(0) at t_c + radius: -1 on the branch of the
        # detour through the upper half-plane
        im = float(np.sum(self.state_at(self.t_c + self.radius)).imag)
        self.branch_sign = 1 if im >= 0.0 else -1

    def state_at(self, t: float) -> Optional[np.ndarray]:
        """The state at real time t: the blow-up solve's up to
        t_c - radius, then the trajectory's; None before the trajectory
        starts, inside the complex path's detour off the real axis.
        Past t_c - radius it answers only at the times the continuation
        kept (its times, t_c + radius and its end) and raises
        IntegrationError, naming the time, at any other."""
        if t <= self.t_c - self.radius:
            return self.solve.state_at(t)
        if t < self.trajectory.times[0]:
            return None
        return self.trajectory.state_at(t)


def initial_field(params: ModelParams) -> FourierField:
    """v(x,0) = alpha - epsilon*cos(x)."""
    n = params.n_modes
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = params.alpha
    c[n + 1] = -params.epsilon / 2.0
    c[n - 1] = -params.epsilon / 2.0
    return FourierField(n, c)


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
    along the last axis; each row comes out as its own call would give it.
    The grid values are the unscaled inverse sums; the 2, the 1/p, the
    node sign and the minus sign are one factor -2 (-1)^k / p, exact with
    p = padded_size(N) a power of two (barring under- and overflow).
    """
    n = params.n_modes
    p = padded_size(n)
    k = np.arange(-n, n + 1)
    sign = node_shift(n)        # the grid starts at x = -pi
    # rows: spectra of v and of v_x on the padded grid
    shift = np.stack([sign, 1j * k * sign])
    out_scale = -2.0 * sign / p
    hi = slice(0, n + 1)        # wavenumbers 0..n
    lo = slice(p - n, p)        # wavenumbers -n..-1

    def work(lead):
        """Padded spectra (and their 0..n, -n..-1 parts), grid values v
        and w = v_x (then v_x^2 / v in place) and the spectrum of w."""
        spec = np.zeros(lead + (2, p), dtype=complex)
        grid = np.empty_like(spec)
        return (spec[..., hi], spec[..., lo], spec, grid, grid[..., 0, :],
                grid[..., 1, :], np.empty(lead + (p,), dtype=complex))

    one = work(())              # a single state's, reused from call to call

    def rhs(c: np.ndarray, t) -> np.ndarray:
        lead = c.shape[:-1]
        spec_hi, spec_lo, spec, grid, v, w, wf = work(lead) if lead else one
        np.multiply(c[..., None, n:], shift[:, n:], out=spec_hi)
        np.multiply(c[..., None, :n], shift[:, :n], out=spec_lo)
        np.fft.ifft(spec, axis=-1, norm="forward", out=grid)
        np.multiply(w, w, out=w)
        # 0/0 (v = v_x = 0: at x = 0 in the step onto t_c, everywhere
        # when eps = 0) counts as 0, the quotient's value on nearby states
        # with v_x = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(w, v, out=w, where=w != 0)
        np.fft.fft(w, out=wf)
        # a new array per call: the stepper keeps every stage
        out = np.empty(lead + (2 * n + 1,), dtype=complex)
        np.multiply(wf[..., hi], out_scale[n:], out=out[..., n:])
        np.multiply(wf[..., lo], out_scale[:n], out=out[..., :n])
        out.T[n] -= 1.0             # k = 0 of each state (a number for one)
        return out

    return rhs


def blowup_event() -> EventSpec:
    """v(0, t) = Re(sum_k c_k) crossing zero from above."""
    return EventSpec(observable=lambda c: float(np.sum(c).real),
                     direction="decreasing", root_tol=_EVENT_ROOT_TOL)


def solve_to_blowup(params: ModelParams) -> tuple[Trajectory, BlowupReport]:
    """Integrate until v(0,t) = 0 and assemble the blow-up report."""
    rhs = make_rhs(params)
    y0 = initial_field(params).coeffs
    # v(0,.) decreases by ~alpha over [0, t_c]; generous horizon
    t_hi = 2.0 * params.alpha + 1.0
    traj, hit = integrate(rhs, y0, 0.0, t_hi, params.integrator,
                          events=[blowup_event()],
                          lin=diffusion(params.n_modes))
    if hit is None:
        raise StiffnessOrSingularity(traj.times[-1], traj,
                                     "no blow-up event located")
    state = FourierField(params.n_modes, hit.state)
    return traj, BlowupReport(t_c=hit.t, state_at_tc=state,
                              integrations={"solve": traj.stats})


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


def u_from_v(fld: FourierField) -> tuple[np.ndarray, FourierField, list]:
    """u = 1/v of one state or of an (m, 2N+1) block of them: its values
    on the padded grid (grid_points(M)), its coefficients, and for each
    state (one for a single state) None or the DivisorTooSmall that its
    |v| on the grid comes below DIVISION_FLOOR with; such a state's u is
    zero."""
    p = padded_size(fld.n_modes)
    vals = synthesize(fld, p)
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
    return u_vals, analyze(u_vals, fld.n_modes), failed


def flatness(fld: FourierField) -> float:
    """Peak height f = u(0) - u(pi), cross-checked against 4*sum of odd a_k;
    u_from_v's DivisorTooSmall is raised before v(0) or v(pi) divides."""
    _, u_field, (failed,) = u_from_v(fld)
    if failed:
        raise failed
    c, n = fld.coeffs, fld.n_modes
    # v(0) = sum_k c_k and v(pi) = sum_k (-1)^k c_k
    v0, vpi = np.sum(c), np.sum(c * node_shift(n))
    f_point = (1.0 / v0 - 1.0 / vpi).real
    a = u_field.coeffs
    f_coeff = 4.0 * float(np.sum(a[n + 1::2]).real)
    if abs(f_point - f_coeff) > _FLATNESS_CHECK_TOL * max(1.0, abs(f_point)):
        raise ValueError(
            f"flatness routes disagree: pointwise {f_point:.3e} vs "
            f"coefficient sum {f_coeff:.3e}")
    return f_point


def seed_imaginary_noise(fld: FourierField, rng_seed: int) -> FourierField:
    """Add a real-x-valued imaginary perturbation i*eta(x), eta even.

    Coefficients of the perturbation are i*u_k with u_k ~ U(-amp, amp),
    amp = _NOISE_AMPLITUDE, iid for k = 0..N and u_{-k} = u_k, which
    preserves the Hermitian pairing of a purely imaginary-valued
    function.  Deterministic for a fixed rng_seed.
    """
    n = fld.n_modes
    rng = np.random.default_rng(rng_seed)
    u = rng.uniform(-_NOISE_AMPLITUDE, _NOISE_AMPLITUDE, size=n + 1)
    pert = np.concatenate([u[:0:-1], u])  # u_N..u_1, u_0, u_1..u_N
    return FourierField(n, fld.coeffs + 1j * pert)


def continue_past_blowup(params: ModelParams, solve: Trajectory, t_end: float,
                         t_c: float, radius: float, rng_seed: int,
                         times: Sequence[float]) -> ContinuationResult:
    """Noise-seeded integration in real time through t_c.

    From the blow-up solve's state at t_c - radius with the imaginary
    seed added, real time to t_end; the event is disarmed, and the seed
    lets the solution pass through v = 0 and turn complex.  The run keeps
    its dense output at the times, t_c + radius and t_end alone.
    """
    if t_end < t_c + radius:
        raise ValueError("t_end must be at least t_c + radius")
    start = FourierField(params.n_modes, solve.state_at(t_c - radius))
    traj, _ = integrate(make_rhs(params),
                        seed_imaginary_noise(start, rng_seed).coeffs,
                        t_c - radius, t_end, params.integrator,
                        lin=diffusion(params.n_modes),
                        keep=[*times, t_c + radius, t_end])
    return ContinuationResult(trajectory=traj, method="noise_seeded",
                              t_c=t_c, radius=radius, solve=solve)


def continue_complex_path(params: ModelParams, solve: Trajectory, t_end: float,
                          t_c: float, radius: float,
                          times: Sequence[float]) -> ContinuationResult:
    """Step around t_c through the complex t-plane.

    From the blow-up solve's state at t_c - radius, a half circle about
    t_c through the upper half-plane, then real time from t_c + radius to
    t_end (no step when equal); both integrations count into one stats.
    The real-time leg keeps its dense output at the times, t_c + radius
    and t_end alone.
    """
    if t_end < t_c + radius:
        raise ValueError("t_end must be at least t_c + radius")
    rhs, lin = make_rhs(params), diffusion(params.n_modes)
    arc = integrate_path(rhs, solve.state_at(t_c - radius),
                         semicircle(t_c, radius), params.integrator, lin)
    leg, _ = integrate(rhs, arc.states[-1], t_c + radius, t_end,
                       params.integrator, lin=lin,
                       keep=[*times, t_c + radius, t_end], stats=arc.stats)
    return ContinuationResult(trajectory=leg, method="complex_path",
                              t_c=t_c, radius=radius, solve=solve)

"""The reciprocal heat equation v_t = v_xx - 1 - 2(v_x)^2/v as a spectral
ODE system: right-hand side assembly, blow-up detection, u-reconstruction,
flatness, and post-blow-up continuation (noise-seeded or complex-time path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import asymptotics, reduced
from .integrator import (EventSpec, IntegratorConfig, StiffnessOrSingularity,
                         Trajectory, integrate, integrate_path, line_segment,
                         semicircle)
from .spectral import (DIVISION_FLOOR, DivisorTooSmall, FourierField,
                       analyze, grid_points, node_shift, padded_size,
                       series_at, synthesize)

_EVENT_ROOT_TOL = 1e-13
# relative tolerance of the cross-check between the two flatness routes
_FLATNESS_CHECK_TOL = 1e-10
# amplitude of the imaginary seed that lets a continuation pass t_c
_NOISE_AMPLITUDE = 1e-16


@dataclass(frozen=True)
class ModelParams:
    """One experiment: initial data v(x,0) = alpha - epsilon*cos(x)."""

    alpha: float
    epsilon: float
    n_modes: int = 128
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
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
    trajectory: Trajectory
    branch_sign: int
    method: str                      # noise_seeded | complex_path
    t_c: float
    radius: Optional[float] = None   # of the complex-path detour about t_c


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
    """
    n = params.n_modes
    p = padded_size(n)
    k = np.arange(-n, n + 1)
    sign = node_shift(n)        # the grid starts at x = -pi
    # rows: spectra of v and of v_x on the padded grid
    shift = np.stack([sign, 1j * k * sign])
    out_scale = sign / p
    hi = slice(0, n + 1)        # wavenumbers 0..n
    lo = slice(p - n, p)        # wavenumbers -n..-1

    def work(lead):
        """Padded spectra (and their 0..n, -n..-1 parts), grid values v
        and w = v_x (then 2 v_x^2 / v in place) and the spectrum of w."""
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
        np.fft.ifft(spec, axis=-1, out=grid)
        np.multiply(v, p, out=v)
        np.multiply(w, w, out=w)
        np.multiply(w, 2.0 * p * p, out=w)
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
        np.negative(out, out)
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


def u_from_v(fld: FourierField) -> tuple[np.ndarray, FourierField]:
    """u = 1/v: its values on the padded grid (grid_points(M)) and its
    coefficients."""
    p = padded_size(fld.n_modes)
    vals = synthesize(fld, p)
    mags = np.abs(vals)
    j = int(np.argmin(mags))
    if mags[j] < DIVISION_FLOOR:
        raise DivisorTooSmall(float(mags[j]), float(grid_points(p)[j]))
    u_vals = 1.0 / vals
    return u_vals, analyze(u_vals, fld.n_modes)


def flatness(fld: FourierField) -> float:
    """Peak height f = u(0) - u(pi), cross-checked against 4*sum of odd a_k."""
    v0, vpi = series_at(fld, [0.0, np.pi])
    f_point = (1.0 / v0 - 1.0 / vpi).real
    _, u_field = u_from_v(fld)
    a = u_field.coeffs
    n = fld.n_modes
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


def _branch_sign(traj: Trajectory, t_probe: float) -> int:
    state = traj.state_at(t_probe)
    im = float(np.sum(state).imag)
    return 1 if im >= 0.0 else -1


def continue_past_blowup(params: ModelParams, t_end: float, t_c: float,
                         rng_seed: int = 0) -> ContinuationResult:
    """Noise-seeded integration from t = 0 through t_c to t_end.

    The event is disarmed; the roundoff imaginary seed lets the solution
    pass through v = 0 and turn complex.
    """
    if t_end <= t_c:
        raise ValueError("t_end must exceed t_c")
    y0 = seed_imaginary_noise(initial_field(params), rng_seed).coeffs
    rhs = make_rhs(params)
    traj, _ = integrate(rhs, y0, 0.0, t_end, params.integrator,
                        lin=diffusion(params.n_modes))
    t_probe = min(1.25 * t_c, 0.5 * (t_c + t_end))
    return ContinuationResult(trajectory=traj,
                              branch_sign=_branch_sign(traj, t_probe),
                              method="noise_seeded", t_c=t_c)


def continue_complex_path(params: ModelParams, t_end: float,
                          t_c: float) -> ContinuationResult:
    """Integrate around t_c on a semicircle in the complex t-plane.

    Real axis to t_c - radius, half circle of radius 0.1 t_c about t_c
    through the upper half-plane, then real axis to t_end.
    """
    radius = 0.1 * t_c
    if t_end <= t_c + radius:
        raise ValueError("t_end must exceed t_c + radius")
    y0 = initial_field(params).coeffs
    rhs = make_rhs(params)
    path = [line_segment(0.0, t_c - radius),
            semicircle(t_c, radius),
            line_segment(t_c + radius, t_end)]
    traj = integrate_path(rhs, y0, path, params.integrator,
                          lin=diffusion(params.n_modes))
    # branch sign from the junction after the semicircle
    post = [i for i, tt in enumerate(traj.path_times)
            if abs(tt.imag) < 1e-14 and tt.real > t_c]
    im = float(np.sum(traj.states[post[0]]).imag) if post else 0.0
    return ContinuationResult(trajectory=traj,
                              branch_sign=1 if im >= 0.0 else -1,
                              method="complex_path", t_c=t_c, radius=radius)

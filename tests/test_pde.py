"""Reciprocal-heat-equation solver: RHS assembly, blow-up detection,
reconstruction, continuation plumbing."""

import math

import numpy as np
import pytest

from blowup_lab.experiments import (TABLE1_ALPHAS, TABLE1_EPSILONS,
                                    sample_times)
from blowup_lab.integrator import IntegratorConfig
from blowup_lab.pde import (ModelParams, blowup_estimates, blowup_event,
                            continue_past_blowup, diffusion, flatness,
                            initial_field, make_rhs, seed_imaginary_noise,
                            solve_to_blowup, u_from_v)
from blowup_lab.spectral import (FourierField, analyze, grid_points,
                                 padded_size, synthesize)
from paper_oracle import u_initial_coeff
from spectral_oracle import v_rhs

FAST = IntegratorConfig(rtol=1e-10, atol=1e-10, h_init=1e-4)


def small_params(n_modes=32, alpha=0.25, epsilon=0.1):
    return ModelParams(alpha=alpha, epsilon=epsilon, n_modes=n_modes,
                       integrator=FAST)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.1, epsilon=0.2)       # epsilon >= alpha
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, epsilon=0.1, n_modes=4)


def test_initial_field_coefficients():
    f = initial_field(small_params())
    n = f.n_modes
    assert f.coeffs[n] == pytest.approx(0.25)
    assert f.coeffs[n + 1] == pytest.approx(-0.05)
    assert f.coeffs[n - 1] == pytest.approx(-0.05)
    assert abs(f.coeffs[n + 2]) == 0.0
    # real and even: v(x, 0) is a real cosine series
    assert np.all(f.coeffs.imag == 0.0)
    assert np.array_equal(f.coeffs, f.coeffs[::-1])


def test_v_rhs_matches_pointwise_oracle():
    # analytic field with fast-decaying spectrum: v = 2 + 0.3 cos x
    # + 0.05 cos 2x; oracle evaluates v_xx - 1 - 2 v_x^2 / v pointwise on
    # a fine grid and transforms back
    n = 32
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = 2.0
    c[n + 1] = c[n - 1] = 0.15
    c[n + 2] = c[n - 2] = 0.025
    fld = FourierField(n, c)
    m = 4096
    x = grid_points(m)
    v = 2.0 + 0.3 * np.cos(x) + 0.05 * np.cos(2 * x)
    v_x = -0.3 * np.sin(x) - 0.1 * np.sin(2 * x)
    v_xx = -0.3 * np.cos(x) - 0.2 * np.cos(2 * x)
    oracle_vals = v_xx - 1.0 - 2.0 * v_x ** 2 / v
    oracle = analyze(oracle_vals, n).coeffs
    got = v_rhs(fld).coeffs
    assert np.max(np.abs(got - oracle)) < 1e-11


def test_fast_rhs_matches_field_rhs_on_smooth_state():
    # make_rhs is the nonlinear part; with the diffusion term the
    # integrator adds, it is the whole v-equation right-hand side
    p = small_params()
    fld = initial_field(p)
    fast = make_rhs(p)(fld.coeffs, 0.0) + diffusion(p.n_modes) * fld.coeffs
    ref = v_rhs(fld).coeffs
    assert np.max(np.abs(fast - ref)) < 1e-13
    k = np.arange(-p.n_modes, p.n_modes + 1)
    assert np.array_equal(diffusion(p.n_modes), -(k * k).astype(float))


def reference_rhs(params):
    """The nonlinear part of the right-hand side as first written (one
    transform per spectrum, fresh temporaries), without the diffusion
    term, which the integrator now steps exactly, and with 0/0 = 0 in the
    quotient: make_rhs must reproduce it bit for bit."""
    n = params.n_modes
    p = padded_size(n)
    k = np.arange(-n, n + 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    ik_sign = 1j * k * sign
    out_scale = sign / p
    spec = np.zeros(p, dtype=complex)
    hi, lo = slice(0, n + 1), slice(p - n, p)

    def rhs(c, t):
        spec[hi] = c[n:] * sign[n:]
        spec[lo] = c[:n] * sign[:n]
        v = np.fft.ifft(spec)
        v *= p
        spec[hi] = c[n:] * ik_sign[n:]
        spec[lo] = c[:n] * ik_sign[:n]
        vx = np.fft.ifft(spec)
        w = vx * vx
        w *= 2.0 * p * p
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(w, v, out=w, where=w != 0)     # 0/0 is 0
        wf = np.fft.fft(w)
        out = np.empty(2 * n + 1, dtype=complex)
        out[n:] = wf[hi]
        out[:n] = wf[lo]
        out *= out_scale
        np.negative(out, out)
        out[n] -= 1.0
        return out

    return rhs


def same_bits(a, b):
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_modes", [8, 32, 128])
def test_rhs_matches_reference_bit_for_bit(n_modes):
    p = small_params(n_modes=n_modes, alpha=1.0, epsilon=0.5)
    fast, ref = make_rhs(p), reference_rhs(p)
    rng = np.random.default_rng(n_modes)
    base = initial_field(p).coeffs
    for scale in (0.0, 1e-16, 1e-8, 1e-3, 0.2):
        noise = rng.standard_normal((2, 2 * n_modes + 1))
        c = base + scale * (noise[0] + 1j * noise[1])
        # bytes compare NaN payloads and the sign of zero as well
        assert same_bits(fast(c, 0.0), ref(c, 0.0))


def test_rhs_matches_reference_where_v_reaches_zero():
    p = small_params(alpha=0.25, epsilon=0.2499999)
    c = initial_field(p).coeffs.copy()
    c[p.n_modes] = p.epsilon      # v(0) ~ 0 on the grid
    assert same_bits(make_rhs(p)(c, 0.0), reference_rhs(p)(c, 0.0))
    # the quotient is formed also where v = 0 exactly; there v_x = 0 as
    # well, and 0/0 counts as 0
    c[p.n_modes] = 0.25
    c[p.n_modes - 1] = c[p.n_modes + 1] = -0.125
    assert same_bits(make_rhs(p)(c, 0.0), reference_rhs(p)(c, 0.0))
    assert np.all(np.isfinite(make_rhs(p)(c, 0.0)))


def test_rhs_on_a_block_matches_row_by_row_calls():
    p = small_params(alpha=0.25, epsilon=0.2499999)
    rng = np.random.default_rng(3)
    base = initial_field(p).coeffs
    noise = rng.standard_normal((2, 6, base.size))
    block = base + 1e-3 * (noise[0] + 1j * noise[1])
    block[2] = base
    block[2, p.n_modes] = p.epsilon     # v(0) ~ 0 on the grid
    block[4, :] = -0.0                  # v = v_x = 0 everywhere: 0/0 is 0
    rhs = make_rhs(p)
    rows = np.array([rhs(c, 0.0) for c in block])
    assert same_bits(rhs(block, 0.0), rows)
    assert same_bits(rhs(block.reshape(2, 3, -1), 0.0), rows.reshape(2, 3, -1))
    assert np.isfinite(rows).all()
    # a single state still comes out as the reference computes it
    reference = reference_rhs(p)
    assert same_bits(rhs(block[1], 0.0), reference(block[1], 0.0))


def test_block_lookups_match_single_lookups_on_a_solve():
    p = small_params()
    traj, rep = solve_to_blowup(p)
    times = sample_times(rep.t_c)
    calls = traj.stats.rhs_calls
    got = list(traj.states_at(times))
    blocks = (traj.stats.rhs_calls - calls) // 5
    assert len(got) == times.size
    assert all(same_bits(a, traj.state_at(t)) for a, t in zip(got, times))
    # fewer than one sub-step per 16 times plus one per segment
    assert blocks <= times.size // 16 + len(traj.dense_segments)


def test_rhs_returns_a_new_array_per_call():
    p = small_params()
    rhs = make_rhs(p)
    c = initial_field(p).coeffs
    first = rhs(c, 0.0)
    kept = first.copy()
    second = rhs(c + 1e-3, 0.0)
    assert first is not second and not np.shares_memory(first, second)
    assert same_bits(first, kept)


def test_blowup_event_observable_is_v_at_origin():
    f = initial_field(small_params())
    ev = blowup_event()
    assert ev.observable(f.coeffs) == pytest.approx(0.25 - 0.1)


def test_solve_to_blowup_lands_on_v0_zero():
    p = small_params()
    traj, rep = solve_to_blowup(p)
    v0 = float(np.sum(traj.states[-1]).real)
    assert abs(v0) < 1e-10
    assert 0.1 < rep.t_c < 0.25


def test_blowup_time_converges_in_n_modes():
    # coefficients at t_c decay only algebraically (~1/k^3), so t_c
    # converges like a power of 1/N rather than spectrally; successive
    # refinements must contract
    t_cs = []
    for n in (32, 64, 96):
        _, rep = solve_to_blowup(small_params(n_modes=n))
        t_cs.append(rep.t_c)
    d1 = abs(t_cs[1] - t_cs[0])
    d2 = abs(t_cs[2] - t_cs[1])
    assert d2 < d1 / 2
    assert d2 < 1e-6


def test_table1_cells_solve_without_nonfinite_stages():
    # the right-hand side forms the quotient on every state; no stage of
    # a Table-1 solve comes out non-finite
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-8)
    for alpha in TABLE1_ALPHAS:
        for epsilon in TABLE1_EPSILONS:
            p = ModelParams(alpha=alpha, epsilon=epsilon, n_modes=32,
                            integrator=cfg)
            stats = solve_to_blowup(p)[1].integrations["solve"]
            assert stats.accepted > 0 and stats.rejected_nonfinite == 0


def test_blowup_report_estimates_and_deltas():
    p = small_params(n_modes=32, alpha=0.25, epsilon=0.1)
    _, rep = solve_to_blowup(p)
    est, integrations = blowup_estimates(p)
    # leading-order estimate alpha - eps e^{-alpha}
    assert est["t_hat"] == pytest.approx(0.25 - 0.1 * math.exp(-0.25))
    # second-order refinement: t_tilde = t_hat - (2 C1 + C2 + C3) eps^2
    from blowup_lab.asymptotics import constants
    c = constants(0.25)
    shift = (2.0 * c.C1 + c.C2 + c.C3) * 0.1 ** 2
    assert est["t_tilde"] == pytest.approx(est["t_hat"] - shift, rel=1e-12)
    assert est["t_c_prime"] - rep.t_c == pytest.approx(-3.6e-4, rel=0.3)
    # v = alpha - t exactly at eps = 0: no two-mode run
    assert blowup_estimates(small_params(epsilon=0.0))[0]["t_c_prime"] == 0.25


def test_u_from_v_is_pointwise_reciprocal():
    f = initial_field(small_params())
    u_vals, u_field = u_from_v(f)
    v_vals = synthesize(f, padded_size(f.n_modes))
    assert np.max(np.abs(u_vals * v_vals - 1.0)) < 1e-13
    # reconstruction matches the closed-form reciprocal coefficients
    for k in (0, 1, 5):
        assert u_field.coeffs[u_field.n_modes + k].real == pytest.approx(
            u_initial_coeff(k, 0.25, 0.1), rel=1e-10)


def test_flatness_dual_route_and_positive():
    f = initial_field(small_params())
    val = flatness(f)
    # exact: 1/(alpha - eps) - 1/(alpha + eps)
    assert val == pytest.approx(1.0 / 0.15 - 1.0 / 0.35, rel=1e-12)


def test_seed_imaginary_noise_properties():
    f = initial_field(small_params())
    g1 = seed_imaginary_noise(f, rng_seed=7)
    g2 = seed_imaginary_noise(f, rng_seed=7)
    assert np.array_equal(g1.coeffs, g2.coeffs)          # deterministic
    pert = g1.coeffs - f.coeffs
    assert np.max(np.abs(pert.real)) == 0.0              # purely imaginary
    assert np.array_equal(pert, pert[::-1])              # even pairing
    assert 0.0 < np.max(np.abs(pert)) <= 1e-16           # roundoff level


def test_continue_past_blowup_requires_t_end_beyond_tc():
    p = small_params()
    with pytest.raises(ValueError):
        continue_past_blowup(p, 0.05, 0.16)


def test_continuation_turns_complex_and_is_seed_deterministic():
    p = small_params()
    _, rep = solve_to_blowup(p)
    r1 = continue_past_blowup(p, 1.5 * rep.t_c, rep.t_c, rng_seed=3)
    r2 = continue_past_blowup(p, 1.5 * rep.t_c, rep.t_c, rng_seed=3)
    s1 = r1.trajectory.state_at(1.4 * rep.t_c)
    s2 = r2.trajectory.state_at(1.4 * rep.t_c)
    assert np.max(np.abs(s1 - s2)) == 0.0
    assert np.max(np.abs(np.imag(s1))) > 1e-10
    assert r1.branch_sign in (-1, 1)

"""Reciprocal-heat-equation solver: RHS assembly, blow-up detection,
reconstruction, continuation plumbing."""

import math
import re

import numpy as np
import pytest

from blowup_lab import pde
from blowup_lab.experiments import (TABLE1_ALPHAS, TABLE1_EPSILONS,
                                    sample_times)
from blowup_lab.integrator import (IntegrationError, IntegratorConfig,
                                   integrate, integrate_path)
from blowup_lab.pde import (ModelParams, blowup_estimates, blowup_event,
                            branch_sign, continue_complex_path,
                            continue_past_blowup, diffusion, flatness,
                            initial_field, make_rhs, seed_imaginary_noise,
                            solve_to_blowup, u_from_v)
from blowup_lab.spectral import (DivisorTooSmall, analyze, grid_points,
                                 padded_size, synthesize)
from paper_oracle import u_initial_coeff
from run_defaults import TOLERANCES, model_params
from spectral_oracle import v_rhs

FAST = IntegratorConfig(rtol=1e-10, atol=1e-10)


def small_params(n_modes=32, alpha=0.25, epsilon=0.1):
    return ModelParams(alpha=alpha, epsilon=epsilon, n_modes=n_modes,
                       integrator=FAST)


def test_model_params_validation():
    with pytest.raises(ValueError):
        small_params(alpha=0.1, epsilon=0.2)      # epsilon >= alpha
    with pytest.raises(ValueError):
        small_params(alpha=1.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        small_params(n_modes=4)
    # non-finite values are refused by name, before any other check
    for name in ("alpha", "epsilon"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} = {value}"):
                small_params(**{name: value})


def test_initial_field_coefficients():
    c = initial_field(small_params())
    n = 32
    assert c.shape == (2 * n + 1,) and c.dtype == np.float64
    assert c[n] == pytest.approx(0.25)
    assert c[n + 1] == pytest.approx(-0.05)
    assert c[n - 1] == pytest.approx(-0.05)
    assert abs(c[n + 2]) == 0.0
    # real and even: v(x, 0) is a real cosine series
    assert np.all(c.imag == 0.0)
    assert np.array_equal(c, c[::-1])


def test_v_rhs_matches_pointwise_oracle():
    # analytic field with fast-decaying spectrum: v = 2 + 0.3 cos x
    # + 0.05 cos 2x; oracle evaluates v_xx - 1 - 2 v_x^2 / v pointwise on
    # a fine grid and transforms back
    n = 32
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = 2.0
    c[n + 1] = c[n - 1] = 0.15
    c[n + 2] = c[n - 2] = 0.025
    m = 4096
    x = grid_points(m)
    v = 2.0 + 0.3 * np.cos(x) + 0.05 * np.cos(2 * x)
    v_x = -0.3 * np.sin(x) - 0.1 * np.sin(2 * x)
    v_xx = -0.3 * np.cos(x) - 0.2 * np.cos(2 * x)
    oracle_vals = v_xx - 1.0 - 2.0 * v_x ** 2 / v
    oracle = analyze(oracle_vals, n)
    got = v_rhs(c)
    assert np.max(np.abs(got - oracle)) < 1e-11


def test_fast_rhs_matches_field_rhs_on_smooth_state():
    # make_rhs is the nonlinear part; with the diffusion term the
    # integrator adds, it is the whole v-equation right-hand side
    p = small_params()
    c = initial_field(p)
    fast = make_rhs(p)(c, 0.0) + diffusion(p.n_modes) * c
    ref = v_rhs(c)
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
    base = initial_field(p)
    for scale in (0.0, 1e-16, 1e-8, 1e-3, 0.2):
        noise = rng.standard_normal((2, 2 * n_modes + 1))
        c = base + scale * (noise[0] + 1j * noise[1])
        # bytes compare NaN payloads and the sign of zero as well
        assert same_bits(fast(c, 0.0), ref(c, 0.0))


def test_rhs_matches_reference_where_v_reaches_zero():
    p = small_params(alpha=0.25, epsilon=0.2499999)
    rhs, reference = make_rhs(p), reference_rhs(p)
    near, zero = initial_field(p), initial_field(p)
    near[p.n_modes] = p.epsilon   # v(0) ~ 0 on the grid
    # the quotient is formed also where v = 0 exactly; there v_x = 0 as
    # well, and 0/0 counts as 0
    zero[p.n_modes] = 0.25
    zero[p.n_modes - 1] = zero[p.n_modes + 1] = -0.125
    for c in (near, zero):
        # the complex route keeps the reference's bits
        cast = c.astype(complex)
        assert same_bits(rhs(cast, 0.0), reference(cast, 0.0))
        # the real route: real, exactly even and finite
        real = rhs(c, 0.0)
        assert real.dtype == np.float64 and same_bits(real, real[::-1])
        assert np.all(np.isfinite(real))
    # at v = 0 the real route's 0/0 is 0 as well: it agrees with the
    # complex route to roundoff
    want = rhs(zero.astype(complex), 0.0)
    assert np.max(np.abs(rhs(zero, 0.0) - want)) <= 1e-13 * np.max(
        np.abs(want))


def even_state(rng, n, alpha):
    """alpha plus a random cosine series whose coefficients decay like
    e^{-k/2}, at most 0.8 alpha in all, so v > 0: the coefficient array,
    real and even."""
    k = np.arange(1, n + 1)
    cos = rng.uniform(-1.0, 1.0, n) * np.exp(-0.5 * k)
    cos *= 0.4 * alpha * rng.uniform() / np.sum(np.abs(cos))
    return np.concatenate([cos[::-1], [alpha], cos])


@pytest.mark.parametrize("n_modes", [8, 32, 128])
def test_real_route_matches_complex_route_on_even_states(n_modes):
    # a real, even state goes through the real transforms; the same
    # values cast to complex take the complex route, which the real route
    # must match to roundoff, its result real and exactly even
    rhs = make_rhs(small_params(n_modes=n_modes))
    rng = np.random.default_rng(100 + n_modes)
    for _ in range(50):
        c = even_state(rng, n_modes, rng.uniform(0.1, 4.0))
        real, cast = rhs(c, 0.0), rhs(c.astype(complex), 0.0)
        assert real.dtype == np.float64 and same_bits(real, real[::-1])
        assert np.max(np.abs(real - cast)) <= 1e-13 * np.max(np.abs(cast))


def test_real_route_matches_pointwise_oracle():
    # test_v_rhs_matches_pointwise_oracle's state, as real coefficients
    n = 32
    c = np.zeros(2 * n + 1)
    c[n] = 2.0
    c[n + 1] = c[n - 1] = 0.15
    c[n + 2] = c[n - 2] = 0.025
    x = grid_points(4096)
    v = 2.0 + 0.3 * np.cos(x) + 0.05 * np.cos(2 * x)
    v_x = -0.3 * np.sin(x) - 0.1 * np.sin(2 * x)
    v_xx = -0.3 * np.cos(x) - 0.2 * np.cos(2 * x)
    oracle = analyze(v_xx - 1.0 - 2.0 * v_x ** 2 / v, n)
    got = make_rhs(small_params(n_modes=n))(c, 0.0) + diffusion(n) * c
    assert got.dtype == np.float64
    assert np.max(np.abs(got - oracle)) < 1e-11


def test_real_array_that_is_not_even_takes_the_complex_route():
    p = small_params(alpha=1.0, epsilon=0.5)
    rhs, reference = make_rhs(p), reference_rhs(p)
    rng = np.random.default_rng(5)
    odd = initial_field(p) + 1e-3 * rng.standard_normal(2 * p.n_modes + 1)
    # halves equal in value but not in bits: 0.0 against -0.0
    signed = initial_field(p)
    signed[p.n_modes + 3] = -0.0
    for c in (odd, signed, np.array([odd, initial_field(p)])):
        got = rhs(c, 0.0)
        assert got.dtype == complex
        assert same_bits(got, rhs(c.astype(complex), 0.0))
    assert same_bits(rhs(odd, 0.0), reference(odd.astype(complex), 0.0))


def test_real_block_matches_row_by_row_calls():
    p = small_params(alpha=0.25, epsilon=0.2499999)
    rng = np.random.default_rng(4)
    block = np.array([even_state(rng, p.n_modes, 0.25) for _ in range(6)])
    block[2] = initial_field(p)
    block[2, p.n_modes] = p.epsilon     # v(0) ~ 0 on the grid
    block[4, :] = -0.0                  # v = v_x = 0 everywhere: 0/0 is 0
    rhs = make_rhs(p)
    rows = np.array([rhs(c, 0.0) for c in block])
    assert rows.dtype == np.float64
    assert same_bits(rhs(block, 0.0), rows)
    assert same_bits(rhs(block.reshape(2, 3, -1), 0.0), rows.reshape(2, 3, -1))
    # one-row blocks, one after another, each as its own row
    ones = [rhs(block[i:i + 1], 0.0) for i in range(len(block))]
    assert same_bits(np.concatenate(ones), rows)
    assert np.isfinite(rows).all()
    # 0/0 counts as 0: all that is left of the all -0.0 row is the -1
    assert np.array_equal(rows[4], -1.0 * (np.arange(rows.shape[1])
                                           == p.n_modes))


def test_rhs_on_a_block_matches_row_by_row_calls():
    p = small_params(alpha=0.25, epsilon=0.2499999)
    rng = np.random.default_rng(3)
    base = initial_field(p)
    noise = rng.standard_normal((2, 6, base.size))
    block = base + 1e-3 * (noise[0] + 1j * noise[1])
    block[2] = base
    block[2, p.n_modes] = p.epsilon     # v(0) ~ 0 on the grid
    block[4, :] = -0.0                  # v = v_x = 0 everywhere: 0/0 is 0
    rhs = make_rhs(p)
    rows = np.array([rhs(c, 0.0) for c in block])
    assert same_bits(rhs(block, 0.0), rows)
    assert same_bits(rhs(block.reshape(2, 3, -1), 0.0), rows.reshape(2, 3, -1))
    # one-row blocks, one after another, each as its own row
    ones = [rhs(block[i:i + 1], 0.0) for i in range(len(block))]
    assert same_bits(np.concatenate(ones), rows)
    assert np.isfinite(rows).all()
    # a single state still comes out as the reference computes it
    reference = reference_rhs(p)
    assert same_bits(rhs(block[1], 0.0), reference(block[1], 0.0))


def test_block_lookups_match_single_lookups_on_a_solve():
    p = small_params()
    traj = solve_to_blowup(p)
    times = sample_times(traj.times[-1])
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
    # a single state, then one-row blocks
    for c in (initial_field(p), initial_field(p)[None]):
        first = rhs(c, 0.0)
        kept = first.copy()
        second = rhs(c + 1e-3, 0.0)
        assert first is not second and not np.shares_memory(first, second)
        assert same_bits(first, kept)


def test_blowup_event_observable_is_v_at_origin():
    c = initial_field(small_params())
    ev = blowup_event()
    assert ev.observable(c) == pytest.approx(0.25 - 0.1)


def test_blowup_solve_is_real_and_the_continuations_complex():
    # the even, real initial data keeps the blow-up solve real and exactly
    # even, dense output included; both continuations turn complex
    p = small_params()
    solve = solve_to_blowup(p)
    assert solve.stats.arithmetic == "real"
    t_c = solve.times[-1]
    r = 0.1 * t_c
    states = [*solve.states, *solve.states_at(sample_times(t_c)[::97])]
    for c in states:
        assert c.dtype == np.float64 and same_bits(c, c[::-1])
    for run in (continue_past_blowup(p, solve, 1.5 * t_c, r, 0, []),
                continue_complex_path(p, solve, 1.5 * t_c, r, [])):
        assert run.stats.arithmetic == "complex"
        assert all(c.dtype == complex for c in run.states if c is not None)
        assert run.state_at(1.5 * t_c).dtype == complex


def test_solve_to_blowup_lands_on_v0_zero():
    p = small_params()
    traj = solve_to_blowup(p)
    v0 = float(np.sum(traj.states[-1]).real)
    assert abs(v0) < 1e-10
    assert 0.1 < traj.times[-1] < 0.25


def test_blowup_time_converges_in_n_modes():
    # coefficients at t_c decay only algebraically (~1/k^3), so t_c
    # converges like a power of 1/N rather than spectrally; successive
    # refinements must contract
    t_cs = []
    for n in (32, 64, 96):
        t_cs.append(solve_to_blowup(small_params(n_modes=n)).times[-1])
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
            stats = solve_to_blowup(p).stats
            assert stats.accepted > 0 and stats.rejected_nonfinite == 0


def test_blowup_report_estimates_and_deltas():
    p = small_params(n_modes=32, alpha=0.25, epsilon=0.1)
    t_c = solve_to_blowup(p).times[-1]
    est, _ = blowup_estimates(p)
    # leading-order estimate alpha - eps e^{-alpha}
    assert est["t_hat"] == pytest.approx(0.25 - 0.1 * math.exp(-0.25))
    # second-order refinement: t_tilde = t_hat - (2 C1 + C2 + C3) eps^2
    from blowup_lab.asymptotics import constants
    c = constants(0.25)
    shift = (2.0 * c.C1 + c.C2 + c.C3) * 0.1 ** 2
    assert est["t_tilde"] == pytest.approx(est["t_hat"] - shift, rel=1e-12)
    assert est["t_c_prime"] - t_c == pytest.approx(-3.6e-4, rel=0.3)
    # v = alpha - t exactly at eps = 0: no two-mode run
    assert blowup_estimates(small_params(epsilon=0.0))[0]["t_c_prime"] == 0.25


def test_u_from_v_is_pointwise_reciprocal():
    c = initial_field(small_params())
    n = c.shape[-1] // 2
    u_vals, u_coeffs, failed = u_from_v(c)
    assert failed == [None]
    v_vals = synthesize(c, padded_size(n))
    assert np.max(np.abs(u_vals * v_vals - 1.0)) < 1e-13
    # reconstruction matches the closed-form reciprocal coefficients
    for k in (0, 1, 5):
        assert u_coeffs[n + k].real == pytest.approx(
            u_initial_coeff(k, 0.25, 0.1), rel=1e-10)


def test_u_from_v_takes_a_block_row_by_row():
    # each row of a block gets the bits its own call gives; a row whose v
    # comes below the division floor on the grid is reported by itself,
    # its u zero
    c = initial_field(small_params())
    n = c.shape[-1] // 2
    touching = c.copy()
    touching[n] = 0.1 + 1e-15    # v = 0.1 + 1e-15 - 0.1 cos x at x = 0
    zero = c.copy()
    zero[n] = 0.1                # v = 0.1 - 0.1 cos x, 0 at x = 0
    block = np.array([c, touching, 2.0 * c, zero])
    u_vals, u_coeffs, failed = u_from_v(block)
    assert failed[0] is None and failed[2] is None
    for row in (1, 3):
        assert isinstance(failed[row], DivisorTooSmall)
        assert failed[row].location == 0.0
        assert not np.any(u_vals[row]) and not np.any(u_coeffs[row])
    for row in (0, 2):
        one_vals, one_coeffs, _ = u_from_v(block[row])
        assert u_vals[row].tobytes() == one_vals.tobytes()
        assert u_coeffs[row].tobytes() == one_coeffs.tobytes()
    # flatness gives those rows the division floor as their reason, and
    # NaN, with no RuntimeWarning from dividing by v(0) = 0
    f, why = flatness(block)
    assert why == [None, "DivisorTooSmall in u_from_v", None,
                   "DivisorTooSmall in u_from_v"]
    assert np.all(np.isfinite(f[[0, 2]])) and np.all(np.isnan(f[[1, 3]]))


def test_flatness_dual_route_and_positive():
    f, why = flatness(initial_field(small_params())[None])
    assert why == [None]
    # exact: 1/(alpha - eps) - 1/(alpha + eps)
    assert f[0] == pytest.approx(1.0 / 0.15 - 1.0 / 0.35, rel=1e-12)


def test_flatness_takes_a_block_row_by_row():
    # each row of a block gets the height and the reason its own one-row
    # block gives, to the bit: a resolved row, a row whose u is too sharp
    # for N = 32 (the routes disagree) and a row at the division floor
    c = initial_field(small_params())
    n = c.shape[-1] // 2
    sharp, touching = c.copy(), c.copy()
    sharp[n] = 0.11              # v = 0.11 - 0.1 cos x
    touching[n] = 0.1 + 1e-15
    block = np.array([c, sharp, 3.0 * c, touching, 0.5 * c])
    f, why = flatness(block)
    assert why == [None, "flatness routes disagree", None,
                   "DivisorTooSmall in u_from_v", None]
    for row in range(len(block)):
        one, (reason,) = flatness(block[row:row + 1])
        assert one.tobytes() == f[row:row + 1].tobytes()
        assert reason == why[row]


def test_seed_imaginary_noise_properties():
    c = initial_field(small_params())
    g1 = seed_imaginary_noise(c, rng_seed=7)
    g2 = seed_imaginary_noise(c, rng_seed=7)
    assert np.array_equal(g1, g2)                        # deterministic
    pert = g1 - c
    assert np.max(np.abs(pert.real)) == 0.0              # purely imaginary
    assert np.array_equal(pert, pert[::-1])              # even pairing
    assert 0.0 < np.max(np.abs(pert)) <= 1e-14           # the amplitude
    u = pert.imag
    assert np.all((-1e-14 <= u) & (u < 1e-14))          # U[-amp, amp)
    other = seed_imaginary_noise(c, rng_seed=8) - c
    assert not np.array_equal(other, pert)               # seed-dependent


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_negative_seed_is_refused_as_numpy_refuses_it(seed):
    c = initial_field(small_params())
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        seed_imaginary_noise(c, seed)


def test_continuation_turns_complex_and_is_seed_deterministic():
    p = small_params()
    solve = solve_to_blowup(p)
    t_c = solve.times[-1]
    times = [1.4 * t_c]
    r1 = continue_past_blowup(p, solve, 1.5 * t_c, 0.1 * t_c, 3, times)
    r2 = continue_past_blowup(p, solve, 1.5 * t_c, 0.1 * t_c, 3, times)
    assert r1.times[0] == t_c - 0.1 * t_c
    s1 = r1.state_at(1.4 * t_c)
    s2 = r2.state_at(1.4 * t_c)
    assert np.max(np.abs(s1 - s2)) == 0.0
    assert np.max(np.abs(np.imag(s1))) > 1e-10


def test_continuation_holds_arrays_only_for_the_steps_it_reads():
    # the run keeps its dense output at the times, t_c + r and t_end: the
    # steps that cover them, and the first step, hold arrays, however
    # many steps a later t_end takes
    p = small_params()
    solve = solve_to_blowup(p)
    t_c = solve.times[-1]
    times = [1.25 * t_c, 1.5 * t_c, 2.0 * t_c]
    held, accepted = [], []
    for t_end in (3.0 * t_c, 6.0 * t_c):
        traj = continue_past_blowup(p, solve, t_end, 0.1 * t_c, 0, times)
        assert len(traj.dense_segments) == traj.stats.accepted
        held.append(sum(seg.r1 is not None for seg in traj.dense_segments))
        accepted.append(traj.stats.accepted)
        # the states held are those the held steps start from, and the last
        assert sum(s is not None for s in traj.states) == held[-1] + 1
        assert sum(seg.k1 is not None for seg in traj.dense_segments) \
            <= len(times) + 2
        for t in times + [t_end]:
            assert traj.state_at(t) is not None
        with pytest.raises(IntegrationError,
                           match=re.escape(f"t = {1.75 * t_c} was not kept")):
            traj.state_at(1.75 * t_c)
    assert held[0] <= len(times) + 3
    assert held[1] <= held[0] and accepted[1] > accepted[0]


def test_complex_path_arc_holds_only_its_two_ends(monkeypatch):
    # the leg reads the arc's last state and its stats alone: the arc's
    # first step keeps its start state as r1, no step keeps k1, and no
    # state but the first and the last is held
    p = small_params()
    solve = solve_to_blowup(p)
    t_c = solve.times[-1]
    arcs, original = [], pde.integrate_path

    def integrate_path(*args, **kwargs):
        arcs.append(original(*args, **kwargs))
        return arcs[-1]

    monkeypatch.setattr("blowup_lab.pde.integrate_path", integrate_path)
    continue_complex_path(p, solve, 1.5 * t_c, 0.1 * t_c, [])
    (arc,) = arcs
    segs = arc.dense_segments
    assert len(segs) > 3
    assert segs[0].r1 is arc.states[0]
    assert all(seg.r1 is None for seg in segs[1:])
    assert all(seg.k1 is None for seg in segs)
    assert all(s is None for s in arc.states[1:-1])
    assert arc.states[-1] is not None


@pytest.mark.parametrize("rng_seed", [0, 104, 157])
def test_the_seed_not_roundoff_picks_the_branch(solve_small, rng_seed):
    # with a seed at roundoff level seeds 104 and 157 left both
    # complex-path branches and reached another solution (1e-2 away at
    # 1.5 t_c); seed 0, run_all.sh's, takes the conjugate branch
    params, solve = solve_small
    t_c = solve.times[-1]
    t_end, r = 1.5 * t_c, 0.1 * t_c
    path = continue_complex_path(params, solve, t_end, r, [])
    seeded = continue_past_blowup(params, solve, t_end, r, rng_seed, [])
    got, want = seeded.state_at(t_end), path.state_at(t_end)
    d_same = float(np.max(np.abs(got - want)))
    d_conj = float(np.max(np.abs(got - np.conj(want))))
    assert min(d_same, d_conj) <= 1e-8
    # the branch sign at t_c + r names the branch: the upper half-plane's
    # -1 for the path, and the path's or its conjugate's for the run
    signs = [branch_sign(run.state_at(t_c + r)) for run in (path, seeded)]
    assert signs == [-1, -1 if d_same < d_conj else 1]


def test_the_legs_around_t_c_reach_the_semicircles_state():
    # v is analytic between the legs through t_c + i r and the semicircle
    # t(s) = t_c + r e^{i pi (1 - s)} over it, so both paths carry the
    # state at t_c - r to the same state at t_c + r.  The semicircle is
    # integrated with plain DOPRI5, the linear term inside its right-hand
    # side (dy/ds = (lin y + N(y)) dt/ds).  Measured at N = 32,
    # rtol = atol = 1e-12: 3.0e-13 apart, max |c| 0.059.
    p = model_params(0.25, 0.1, n_modes=32)
    solve = solve_to_blowup(p)
    t_c = solve.times[-1]
    r = 0.1 * t_c
    start = solve.state_at(t_c - r)
    rhs, lin = make_rhs(p), diffusion(p.n_modes)

    def along_semicircle(y, s):
        arc = r * np.exp(1j * math.pi * (1.0 - s))      # t(s) - t_c
        return (lin * y + rhs(y, t_c + arc)) * (-1j * math.pi * arc)

    circle = integrate(along_semicircle, start.astype(complex), 0.0, 1.0,
                       TOLERANCES, keep=())
    legs = integrate_path(rhs, start, t_c, r, TOLERANCES, lin)
    assert np.max(np.abs(legs.states[-1] - circle.states[-1])) <= 2e-12


def test_complex_path_converges_in_n_modes(solve_small):
    # the complex path at N = 64 and N = 128, each around its own t_c, at
    # the same absolute times from 1.25 t_c on.  Measured: the modes
    # -64..64 differ by at most 6.9e-13 (max |c| 0.24), and N = 128's
    # modes past 64 are at most 2.7e-12
    params, solve = solve_small
    coarse = model_params(params.alpha, params.epsilon, n_modes=64)
    times = [f * solve.times[-1] for f in (1.25, 1.5, 2.0, 3.0)]
    runs = []
    for p, s in ((coarse, solve_to_blowup(coarse)), (params, solve)):
        t_c = s.times[-1]
        r = 0.1 * t_c
        runs.append(continue_complex_path(p, s, times[-1], r, times))
    for t in times:
        low, high = runs[0].state_at(t), runs[1].state_at(t)
        assert np.max(np.abs(high[64:-64] - low)) <= 5e-12
        assert max(np.max(np.abs(high[:64])),
                   np.max(np.abs(high[-64:]))) <= 1e-11


@pytest.mark.parametrize("rng_seed", [0, 1])
def test_noise_seeded_run_matches_the_complex_path(solve_small, rng_seed):
    # at N = 128 the seeded run follows the complex path or its conjugate,
    # far tighter than criterion 7's 1e-6: v on 257 points in x, relative
    # to max |v|.  Measured: at most 4.1e-10 (seed 0) and 3.7e-9 (seed 1),
    # both at 1.15 t_c
    params, solve = solve_small
    t_c = solve.times[-1]
    r = 0.1 * t_c
    times = [f * t_c for f in (1.15, 1.25, 1.5, 2.0, 3.0)]
    path = continue_complex_path(params, solve, times[-1], r, times)
    seeded = continue_past_blowup(params, solve, times[-1], r, rng_seed,
                                  times)
    for t in times:
        v_path = synthesize(path.state_at(t), 257)
        v_seeded = synthesize(seeded.state_at(t), 257)
        d = min(np.max(np.abs(v_seeded - v_path)),
                np.max(np.abs(v_seeded - np.conj(v_path))))
        assert d <= 1e-8 * np.max(np.abs(v_path))

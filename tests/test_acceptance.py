"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion N] ...: PASS/FAIL` line (visible
with -s or in captured output on failure) and asserts every sub-check.
"""

import math

import numpy as np

from blowup_lab import asymptotics, experiments, tracker
from blowup_lab.integrator import IntegratorConfig, integrate
from blowup_lab.pde import (continue_complex_path, continue_past_blowup,
                            diffusion, make_rhs, seed_imaginary_noise,
                            solve_to_blowup)
from blowup_lab.spectral import padded_size, synthesize
from fixed_step import order_check
from paper_oracle import (fourier_ansatz_blowup, impingement_regression,
                          minimal_flatness, near_blowup_forms,
                          solve_taylor_two_mode, taylor_conserved_quantity)
from run_defaults import TOLERANCES, model_params
from spectral_oracle import convolve, v_rhs

# Reference blow-up times and estimate deltas (t_c' - t_c, t_hat - t_c,
# t_tilde - t_c) for the 3x3 (alpha, epsilon) grid.
TABLE1 = {
    (0.25, 0.1):   (0.161963, -3.6e-04, 1.0e-02, 2.6e-02),
    (0.25, 0.01):  (0.242093, 1.8e-03, 1.2e-04, 2.8e-04),
    (0.25, 0.001): (0.249220, 2.2e-04, 1.2e-06, 2.8e-06),
    (1.0, 0.1):    (0.955542, 2.1e-03, 7.7e-03, 4.5e-03),
    (1.0, 0.01):   (0.996241, 9.5e-04, 8.1e-05, 4.9e-05),
    (1.0, 0.001):  (0.999631, 1.1e-04, 8.1e-07, 4.9e-07),
    (4.0, 0.1):    (3.996685, 5.0e-04, 1.5e-03, 1.4e-05),
    (4.0, 0.01):   (3.999802, 5.3e-05, 1.5e-05, 1.2e-07),
    (4.0, 0.001):  (3.999982, 5.4e-06, 1.5e-07, 1.2e-09),
}


def _report(num: int, name: str, checks: list):
    """checks: list of (bool, description). Prints one PASS/FAIL line."""
    failed = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = f"  [{'; '.join(failed)}]" if failed else ""
    print(f"[criterion {num}] {name}: {status}{detail}")
    assert not failed, f"criterion {num} failed: {failed}"


def test_criterion_1_blowup_time_table():
    rows = experiments.run_table1(n_modes=128, rtol=1e-12, atol=1e-12)
    checks = []
    for r in rows:
        ref_tc, d1, d2, d3 = TABLE1[(r.alpha, r.epsilon)]
        tag = f"a={r.alpha} e={r.epsilon}"
        checks.append((r.error is None, f"{tag} errored: {r.error}"))
        if r.error is not None:
            continue
        checks.append((abs(r.t_c - ref_tc) <= 2e-6,
                       f"{tag} t_c off by {abs(r.t_c - ref_tc):.2e}"))
        for got, ref, col in [(r.d_two_mode, d1, "tc'"),
                              (r.d_t_hat, d2, "t_hat"),
                              (r.d_t_tilde, d3, "t_tilde")]:
            ok = (np.sign(got) == np.sign(ref)
                  and abs(got - ref) <= 0.30 * abs(ref))
            checks.append((ok, f"{tag} {col} delta {got:.3e} vs {ref:.3e}"))
    _report(1, "blow-up time table", checks)


def test_criterion_2_exact_identities():
    checks = []
    # identity v*(v_t - v_xx + 1) + 2*v_x^2 = 2 eps^2 e^{-2t} sin^2 x for
    # the first-timescale ansatz v = alpha - t - eps e^{-t} cos x,
    # evaluated through the discrete operators
    alpha, eps, t0, n = 1.0, 0.01, 0.3, 128
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = alpha - t0
    c[n + 1] = c[n - 1] = -eps * math.exp(-t0) / 2.0
    v_t = np.zeros(2 * n + 1, dtype=complex)
    v_t[n] = -1.0
    v_t[n + 1] = v_t[n - 1] = eps * math.exp(-t0) / 2.0
    prod = convolve(c, v_t - v_rhs(c))
    tgt = np.zeros(2 * n + 1, dtype=complex)
    a2 = eps ** 2 * math.exp(-2.0 * t0)
    tgt[n] = a2
    tgt[n + 2] = tgt[n - 2] = -a2 / 2.0
    err14 = float(np.max(np.abs(prod - tgt)))
    checks.append((err14 <= 1e-11, f"periodic identity residual {err14:.2e}"))

    # Taylor analogue: v = alpha - (1-2e)t + e x^2 gives remainder 8 e^2 x^2
    # (non-periodic, so verified through polynomial algebra)
    from numpy.polynomial import polynomial as P
    e, t = 0.01, 0.3
    vp = np.array([alpha - (1.0 - 2.0 * e) * t, 0.0, e])
    vp_t = np.array([-1.0 + 2.0 * e, 0.0, 0.0])
    vp_x = P.polyder(vp)
    vp_xx = np.pad(P.polyder(vp, 2), (0, 2))
    lhs = P.polymul(vp, vp_t - vp_xx + np.array([1.0, 0.0, 0.0]))
    lhs = P.polyadd(lhs, 2.0 * P.polymul(vp_x, vp_x))
    tgt2 = np.zeros_like(lhs)
    tgt2[2] = 8.0 * e * e
    err_taylor = float(np.max(np.abs(lhs - tgt2)))
    checks.append((err_taylor <= 1e-11, f"Taylor remainder {err_taylor:.2e}"))

    # eps = 0: v = alpha - t exactly, so t_c = alpha
    err_tc = abs(solve_to_blowup(model_params(0.25, 0.0)).times[-1] - 0.25)
    checks.append((err_tc <= 1e-12, f"eps=0 t_c error {err_tc:.2e}"))
    _report(2, "exact identities", checks)


def test_criterion_3_coefficient_decay(solve_mid):
    params, solve = solve_mid
    n = params.n_modes
    c = np.abs(solve.states[-1][n + 1:])
    k = np.arange(1, n + 1)
    sel = (k >= 10) & (k <= 60)
    slope = np.polyfit(np.log(k[sel]), np.log(c[sel]), 1)[0]
    law = asymptotics.coeff_decay_global(k, params.alpha, params.epsilon)
    sel2 = (k >= 8) & (k <= 40)
    ratio = c[sel2] / law[sel2]
    overlay = asymptotics.coeff_decay_local(k[k >= 3])
    checks = [
        (abs(slope + 3.0) <= 0.2, f"log-log slope {slope:.3f}"),
        (np.all((ratio >= 0.5) & (ratio <= 2.0)),
         f"law ratio range [{ratio.min():.3f}, {ratio.max():.3f}]"),
        (np.all(np.isfinite(overlay)) and np.all(overlay > 0),
         "local-law overlay not finite/positive"),
    ]
    _report(3, "coefficient decay at t_c", checks)


def test_criterion_4_blowup_profile(solve_fine):
    params, solve = solve_fine
    data = experiments.profile_from_state(solve.states[-1], solve.times[-1],
                                          params)
    mask = np.abs(data.x) >= 0.1
    rel = np.abs(data.eq_global[mask] - data.v_solver[mask]) \
        / np.abs(data.v_solver[mask])
    i = int(np.argmin(np.abs(data.x_small - 1e-4)))
    v = data.v_small[i]
    e_global = abs(data.eq_global_small[i] - v)
    e_local = abs(data.eq_local_small[i] - v)
    checks = [
        (float(np.max(rel)) <= 1e-2,
         f"global profile max rel err {np.max(rel):.2e}"),
        (e_local < e_global,
         f"at x=1e-4 local {e_local:.2e} !< global {e_global:.2e}"),
    ]
    _report(4, "blow-up profile accuracy", checks)


def test_criterion_5_error_curve_crossing(solve_fine, solve_mid):
    p1, traj1 = solve_fine
    p2, traj2 = solve_mid
    d1 = experiments.error_curves_from_solution(traj1, p1)
    d2 = experiments.error_curves_from_solution(traj2, p2)
    eps = p1.epsilon
    dt = d1.t_c - d1.times
    valid = (d1.times > 0) & np.isfinite(d1.err_timescale2) & (dt > 0)
    late = valid & (dt < eps / 2.0)
    early = valid & (dt > 100.0 * eps)
    diff = d1.err_perturbation - d1.err_timescale2   # > 0 where 2nd wins
    # the measured crossing sits near dt ~ 60 eps; the criterion brackets
    # it inside (eps/2, 100 eps): the perturbation form must stop winning
    # and the second-timescale form must start winning inside the bracket
    sel13 = valid & (diff < 0)
    sel19 = valid & (diff > 0)
    d_min_13 = float(np.min(dt[sel13])) if np.any(sel13) else np.nan
    d_max_19 = float(np.max(dt[sel19])) if np.any(sel19) else np.nan
    checks = [
        (late.sum() > 0 and np.all(diff[late] > 0),
         "second-timescale form not superior for t_c - t < eps/2"),
        (early.sum() > 0 and np.all(diff[early] < 0),
         "perturbation form not superior for t_c - t > 100 eps"),
        (eps / 2.0 <= d_min_13 <= 100.0 * eps,
         f"perturbation form last wins at dt={d_min_13:.3e}"),
        (eps / 2.0 <= d_max_19 <= 100.0 * eps,
         f"second-timescale form first wins at dt={d_max_19:.3e}"),
    ]
    # plateau of the perturbation-form error scales as eps^2 (factor 2)
    def plateau(d):
        return d.err_perturbation[int(np.argmin(np.abs(d.times - 0.5)))]
    r = plateau(d2) / plateau(d1)
    checks.append((50.0 <= r <= 200.0, f"plateau ratio {r:.1f}"))
    _report(5, "error-curve crossing", checks)


def test_criterion_6_singularity_track(solve_fine):
    params, traj = solve_fine
    alpha, eps, t_c = params.alpha, params.epsilon, traj.times[-1]
    # every other point of the sample grid: 1,250 samples, uniform in t
    # plus log-spaced towards t_c
    track = tracker.build_track(traj, experiments.sample_times(t_c)[::2])
    checks = []
    # y at t = 0 equals arccosh(alpha/eps)
    y0_ref = math.acosh(alpha / eps)
    y0 = track.y_root[0]
    checks.append((np.isfinite(y0) and abs(y0 - y0_ref) <= 0.03 * y0_ref,
                   f"y(0) = {y0} vs {y0_ref:.4f}"))
    # interior maximum location
    i_max = int(np.nanargmax(track.y_root))
    t_max = track.times[i_max]
    checks.append((abs(t_max - 0.37) <= 0.15,
                   f"interior max at t = {t_max:.4f}"))
    checks.append((0 < i_max < track.times.size - 1,
                   "maximum not interior"))
    # fit/root agreement on the common validity window, over enough pairs
    # that the agreement is not carried by a handful of samples
    common = track.usable_fit() & track.usable_root()
    n_common = int(np.count_nonzero(common))
    print(f"[criterion 6] fit/root pairs in the common window: {n_common}")
    checks.append((n_common >= 20,
                   f"only {n_common} fit/root pairs in the common window"))
    if np.any(common):
        rel = np.abs(track.y_fit[common] - track.y_root[common]) \
            / track.y_root[common]
        checks.append((float(np.max(rel)) <= 0.05,
                       f"fit/root disagreement {np.max(rel):.3f} over "
                       f"{n_common} pairs"))
    # terminal regression slope 8: the double-log law y^2 ~ 8 d log(1/d)
    # needs log(1/d) >> e^alpha/(4 eps); the implemented third-scale
    # formula is regressed inside that regime
    eps_s = 0.05
    d = np.logspace(-80, -50, 40)
    y_syn = asymptotics.singularity_y("third_scale", -d / eps_s, 1.0, eps_s,
                                      t_c)
    slope = impingement_regression(d, y_syn)
    checks.append((abs(slope - 8.0) <= 1.5, f"regression slope {slope:.2f}"))
    # and the solver's root track matches the second-timescale overlay on
    # the terminal window it can actually reach
    t = track.times
    mask = ((t >= t_c - 10.0 * eps) & (t <= t_c - 0.1 * eps)
            & np.isfinite(track.y_root))
    checks.append((np.count_nonzero(mask) >= 3,
                   "too few terminal-window samples"))
    if np.any(mask):
        pred = asymptotics.singularity_y("second_scale",
                                         (t[mask] - t_c) / eps, alpha, eps,
                                         t_c)
        relr = np.abs(track.y_root[mask] - pred) / pred
        checks.append((float(np.max(relr)) <= 0.05,
                       f"terminal overlay mismatch {np.max(relr):.3f}"))
    _report(6, "singularity track", checks)


def test_criterion_7_postblowup_continuation(solve_small):
    params, solve = solve_small
    t_c = solve.times[-1]
    n = params.n_modes
    checks = []
    # the seeded run leaves the blow-up solve at t_s = t_c - r
    t_s = t_c - 0.1 * t_c
    # the run keeps its dense output at the times the checks read: 64
    # times in [t_s, t_c - 1e-6] (denser than the steps it takes there)
    # and 400 in [1.5 t_c, 3 t_c]
    approach = np.linspace(t_s, t_c - 1e-6, 64)
    ts = np.linspace(1.5 * t_c, 3.0 * t_c, 400)
    r1 = continue_past_blowup(params, solve.state_at(t_s), 3.1 * t_c, t_c,
                              0.1 * t_c, 0,
                              [*approach, *ts, 1.25 * t_c, 2.0 * t_c])
    # real before t_c (the solve's states up to t_s, then the run's),
    # complex after
    before = [s for tt, s in zip(solve.times, solve.states) if tt <= t_s]
    before += list(r1.states_at(approach))
    im_before = max(np.max(np.abs(np.imag(s))) for s in before)
    im_after = float(np.max(np.abs(np.imag(r1.state_at(1.25 * t_c)))))
    checks.append((im_before <= 1e-10, f"imag before t_c: {im_before:.2e}"))
    checks.append((im_after > 1e-8, f"imag after t_c: {im_after:.2e}"))

    # |u(pi)| grows >= 10x between 1.5 t_c and its local max near 2 t_c
    k = np.arange(-n, n + 1)

    def u_pi(state):
        return abs(1.0 / np.sum(state * (-1.0) ** k))

    u15 = u_pi(r1.state_at(1.5 * t_c))
    us = np.array([u_pi(r1.state_at(tt)) for tt in ts])
    i_pk = int(np.argmax(us))
    checks.append((us[i_pk] / u15 >= 10.0,
                   f"|u(pi)| growth {us[i_pk] / u15:.1f}x"))
    checks.append((1.5 <= ts[i_pk] / t_c <= 3.0,
                   f"peak at {ts[i_pk] / t_c:.2f} t_c"))

    # the conjugated seed gives the complex-conjugate state at 2 t_c
    y0 = np.conj(seed_imaginary_noise(solve.state_at(t_s), 0))
    conj = integrate(make_rhs(params), y0, t_s, 2.2 * t_c, params.integrator,
                     lin=diffusion(params.n_modes))
    dconj = float(np.max(np.abs(r1.state_at(2.0 * t_c)
                                - np.conj(conj.state_at(2.0 * t_c)))))
    checks.append((dconj <= 1e-6, f"conjugate-seed mismatch {dconj:.2e}"))

    # the complex-time path matches one noise-seeded branch at 3 t_c
    r3 = continue_complex_path(params, solve.state_at(t_s), 3.05 * t_c, t_c,
                               0.1 * t_c, [3.0 * t_c])
    s_path = r3.state_at(3.0 * t_c)
    s_noise = r1.state_at(3.0 * t_c)
    d_same = float(np.max(np.abs(s_path - s_noise)))
    d_conj = float(np.max(np.abs(s_path - np.conj(s_noise))))
    checks.append((min(d_same, d_conj) <= 1e-6,
                   f"path/noise mismatch {min(d_same, d_conj):.2e}"))

    # u -> -1/t for large t (lower resolution suffices: the state is
    # nearly constant in x and the explicit step is stability-limited)
    p48 = model_params(params.alpha, params.epsilon, n_modes=48)
    solve48 = solve_to_blowup(p48)
    t_c48 = solve48.times[-1]
    r48 = 0.1 * t_c48
    r4 = continue_past_blowup(p48, solve48.state_at(t_c48 - r48), 20.0,
                              t_c48, r48, 0, [])
    u_vals = 1.0 / synthesize(r4.state_at(20.0), padded_size(48))
    dev = float(np.max(np.abs(u_vals + 1.0 / 20.0)) * 20.0)
    checks.append((dev <= 0.05, f"asymptote deviation {dev:.3f}"))
    _report(7, "post-blow-up continuation", checks)


def test_criterion_8_conservation_and_order():
    checks = []
    # conserved quantity of the Taylor two-mode system. Q carries a
    # 1/b^2 ~ 1e4 condition number, so the 1e-9 drift bound needs state
    # accuracy beyond rtol 1e-12; the drift run is integrated at 1e-14
    # and excludes the terminal stretch (a < 1e-6) where the vector
    # field itself is singular
    tight = IntegratorConfig(rtol=1e-14, atol=1e-14)
    taylor, t_c_taylor = solve_taylor_two_mode(1.0, 0.01, tight)
    q = []
    for tt, y in zip(taylor.times, taylor.states):
        a, b = y[0].real, y[1].real
        if a > 1e-6 and b > 0.0:
            q.append((tt, taylor_conserved_quantity(a, b)))
    t_arr = np.array([x[0] for x in q])
    q_arr = np.array([x[1] for x in q])
    span = t_arr[-1] - t_arr[0]
    drift = float(np.max(np.abs(q_arr - q_arr[0]))) / span
    checks.append((drift <= 1e-9, f"conserved-quantity drift {drift:.2e}/t"))

    # observed convergence order on y' = -y
    slope = order_check(lambda y, t: -y, np.array([1.0 + 0.0j]), 0.0, 1.0,
                        lambda t: np.array([math.exp(-t)]),
                        [0.2, 0.1, 0.05, 0.025])
    checks.append((abs(slope - 5.0) <= 0.3, f"observed order {slope:.2f}"))

    # near-blow-up matching constants
    eps, alpha = 0.01, 1.0
    fourier, t_event = fourier_ansatz_blowup(alpha, eps, TOLERANCES)
    a_c, _ = near_blowup_forms("fourier", fourier, t_event)
    ratio_a = a_c / (eps * math.exp(-alpha))
    checks.append((abs(ratio_a - 1.0) <= 0.1,
                   f"a_c/(eps e^-alpha) = {ratio_a:.3f}"))
    b_c, _ = near_blowup_forms("taylor", taylor, t_c_taylor)
    ratio_b = 8.0 * eps * b_c
    checks.append((abs(ratio_b - 1.0) <= 0.15,
                   f"8 eps b_c = {ratio_b:.3f}"))
    _report(8, "conservation and order", checks)


def test_criterion_9_flatness(solve_fine):
    params, traj = solve_fine
    data = experiments.flatness_from_solution(traj, params)
    m = data.times <= 0.9 * data.t_c
    max_rel = float(np.max(data.rel_err[m]))
    checks = [(max_rel <= 0.01, f"alpha=1 max rel err {max_rel:.4f}")]

    p4 = model_params(4.0, 0.01)
    d4 = experiments.flatness_from_solution(solve_to_blowup(p4), p4)
    i = int(np.argmin(d4.f_solver))
    t_min = d4.times[i]
    f_min = d4.f_solver[i]
    f_ref = minimal_flatness(4.0, 0.01)
    checks.append((abs(t_min - 2.0) <= 0.1, f"minimum at t = {t_min:.3f}"))
    checks.append((abs(f_min - f_ref) <= 0.1 * f_ref,
                   f"minimum value {f_min:.3e} vs {f_ref:.3e}"))
    _report(9, "flatness", checks)

"""Dataset builders behind the CLI."""

import re
from collections import Counter

import numpy as np
import pytest

from blowup_lab import asymptotics, experiments, pde
from blowup_lab.integrator import IntegratorConfig
from blowup_lab.pde import (ModelParams, continue_complex_path,
                            continue_past_blowup, solve_to_blowup, u_from_v)
from blowup_lab.spectral import (grid_points, node_shift, padded_size,
                                 synthesize)

FAST = IntegratorConfig(rtol=1e-10, atol=1e-10)


def small_params():
    return ModelParams(alpha=0.25, epsilon=0.1, n_modes=32, integrator=FAST)


def test_run_table1_single_cell():
    r = experiments._table1_cell(0.25, 0.1, 32, 1e-10, 1e-10)
    assert r.error is None
    assert r.t_c == pytest.approx(0.161963, abs=1e-5)
    assert r.d_t_hat == pytest.approx(1.0e-2, rel=0.3)


def test_run_table1_reports_per_cell_failures():
    row = experiments._table1_cell(-1.0, 0.1, 32, 1e-12, 1e-12)
    assert row.error is not None
    assert np.isnan(row.t_c)


@pytest.fixture(scope="module")
def small_solve():
    params = small_params()
    traj, rep = solve_to_blowup(params)
    return params, traj, rep


def test_error_curves_behaviour(small_solve):
    params, traj, rep = small_solve
    data = experiments.error_curves_from_solution(traj, rep.t_c, params)
    assert data.times.size > 10
    # v(0, t_c) = 0, so the relative errors stop before t_c
    assert np.all(data.times < data.t_c)
    assert np.all(np.isfinite(data.err_timescale2))
    # the perturbation approximation is excellent at early times
    early = data.times < 0.2 * data.t_c
    assert np.max(data.err_perturbation[early & (data.times > 0)]) < 5e-2
    # every grid time has a row or is counted under a reason
    assert data.times.size + sum(data.dropped.values()) \
        == experiments.sample_times(rep.t_c).size


def test_error_curves_match_a_per_state_evaluation(small_solve):
    # the builder reads the grid in blocks; each row is what one state
    # at a time gives, to the bit
    params, traj, rep = small_solve
    a, e, t_c = params.alpha, params.epsilon, rep.t_c
    m = padded_size(params.n_modes)
    x = grid_points(m)
    consts = asymptotics.constants(a)
    times = experiments.sample_times(t_c)
    rows, dropped = [], Counter()
    for t, c in zip(times, traj.states_at(times)):
        v = synthesize(c, m).real
        if np.min(np.abs(v)) <= 0.0:
            dropped["v = 0 on the grid"] += 1
            continue
        errs = [np.max(np.abs(approx - v) / np.abs(v)) for approx in (
            asymptotics.perturbation_v(x, t, a, e),
            asymptotics.v_timescale2(x, t, a, e, t_c, consts))]
        rows.append([t, *errs])
    data = experiments.error_curves_from_solution(traj, t_c, params)
    got = np.stack([data.times, data.err_perturbation, data.err_timescale2])
    assert got.tobytes() == np.array(rows).T.tobytes()
    assert data.dropped == dict(dropped)


@pytest.mark.parametrize("epsilon", [0.1, 0.0])
def test_flatness_matches_a_per_state_evaluation(epsilon):
    # the builder reads the grid in blocks; each row, and each drop and
    # NaN by its reason, is what one state at a time gives, to the bit
    params = small_params()
    params = ModelParams(params.alpha, epsilon, params.n_modes, FAST)
    traj, rep = solve_to_blowup(params)
    a, n = params.alpha, params.n_modes
    rows, dropped, nan_rel_err = [], Counter(), Counter()
    grid = experiments.sample_times(rep.t_c)
    for t, c in zip(grid, traj.states_at(grid)):
        if t >= a:
            dropped["t >= alpha"] += 1
            continue
        _, coeffs, (failed,) = u_from_v(c)
        if failed:
            dropped["DivisorTooSmall in u_from_v"] += 1
            continue
        f = (1.0 / np.sum(c) - 1.0 / np.sum(c * node_shift(n))).real
        f_coeff = 4.0 * float(np.sum(coeffs[n + 1::2]).real)
        if abs(f - f_coeff) > pde._FLATNESS_CHECK_TOL * max(1.0, abs(f)):
            dropped["flatness routes disagree"] += 1
            continue
        approx = asymptotics.flatness_approx(t, a, epsilon)
        if f == 0.0:
            nan_rel_err["f_solver = 0"] += 1
        rows.append([t, f, approx, abs(approx - f) / abs(f) if f else np.nan])
    data = experiments.flatness_from_solution(traj, rep.t_c, params)
    got = np.stack([data.times, data.f_solver, data.f_approx, data.rel_err])
    assert got.tobytes() == np.array(rows).T.tobytes()
    assert data.dropped == dict(dropped)
    assert data.nan_rel_err == dict(nan_rel_err)
    assert dropped or nan_rel_err


def test_singularity_overlays_shapes(small_solve):
    params, traj, rep = small_solve
    data = experiments.singularity_from_solution(traj, rep.t_c, params)
    tr = data.track
    assert set(data.overlays) == set(
        ("naive", "early", "late_first_scale", "second_scale",
         "third_scale", "impingement"))
    for arr in data.overlays.values():
        assert arr.shape == tr.times.shape
    # naive overlay at t = 0 equals the root estimate at t = 0
    assert data.overlays["naive"][0] == pytest.approx(tr.y_root[0], rel=1e-3)
    # every grid time has an overlay value or is counted under a reason
    for regime, values in data.overlays.items():
        assert np.sum(np.isfinite(values)) \
            + sum(data.dropped[regime].values()) == tr.times.size
    assert data.dropped["early"] == {"requires 0 < t < 1": 1}


def test_run_continuation_complex_path():
    p = small_params()
    data = experiments.run_continuation(p, 0.5, 0, (), "complex_path")
    assert data.method == "complex_path"
    assert np.isfinite(data.asymptote_deviation)
    assert sorted(data.snapshot_times) == data.snapshot_times
    with pytest.raises(ValueError):
        experiments.run_continuation(p, 0.5, 0, (), "teleport")


def test_complex_path_to_a_t_end_inside_the_detour_narrows_it():
    # t_end = 1.05 t_c lies inside the 0.1 t_c detour: the detour shrinks
    # to end on t_end, and t_c itself has no real-axis state
    p = small_params()
    solve, rep = solve_to_blowup(p)
    t_end = 1.05 * rep.t_c
    data = experiments.run_continuation(p, t_end, 0, (), "complex_path")
    assert data.radius == t_end - rep.t_c
    # the real-time leg from t_c + r = t_end takes no step
    leg = continue_complex_path(p, solve.state_at(rep.t_c - data.radius),
                                t_end, rep.t_c, data.radius, [])
    assert leg.times == [t_end]
    assert list(data.skipped_times) == [round(rep.t_c, 12)]
    assert data.snapshot_times == [0.0, round(0.5 * rep.t_c, 12)]
    assert np.isfinite(data.asymptote_deviation)


@pytest.mark.parametrize("method", experiments.CONTINUATION_METHODS)
def test_continuation_to_t_c_or_before_is_refused_by_name(method):
    p = small_params()
    _, rep = solve_to_blowup(p)
    for t_end in (0.1, rep.t_c):
        with pytest.raises(ValueError, match=re.escape(
                f"continue: --t-end {t_end} is not past t_c = {rep.t_c}")):
            experiments.run_continuation(p, t_end, 0, (), method)


def test_complex_path_snapshots_hold_their_labelled_time():
    p = small_params()
    path = experiments.run_continuation(p, 0.5, 0, (), "complex_path")
    seeded = experiments.run_continuation(p, 0.5, 0, (), "noise_seeded")
    t_c = path.t_c
    # t_c lies inside the detour (t_c - r, t_c + r): no real-axis state
    assert list(path.skipped_times) == [round(t_c, 12)]
    assert round(t_c, 12) not in path.snapshot_times
    assert round(t_c, 12) not in path.u_edge_moduli
    assert seeded.skipped_times == {}
    # before t_c - r both methods read the same blow-up solve
    t = round(0.5 * t_c, 12)
    got = path.snapshots[path.snapshot_times.index(t)]
    want = seeded.snapshots[seeded.snapshot_times.index(t)]
    assert got.tobytes() == want.tobytes()
    # and every snapshot time outside the detour is read on the real axis
    assert set(path.snapshot_times) | set(path.skipped_times) \
        == set(seeded.snapshot_times)


@pytest.mark.parametrize("method", experiments.CONTINUATION_METHODS)
def test_continuation_starts_from_the_blowup_solve(method):
    # up to t_c - r the snapshots are the blow-up solve's own states, to
    # the bit: no interval is integrated twice
    p = small_params()
    data = experiments.run_continuation(p, 0.5, 0, (), method)
    solve, _ = solve_to_blowup(p)
    t_s = data.t_c - data.radius
    before = [t for t in data.snapshot_times if t <= t_s]
    assert len(before) == 2
    for t in before:
        got = data.snapshots[data.snapshot_times.index(t)]
        assert got.tobytes() == solve.state_at(t).tobytes()


def test_run_continuation_extra_times_and_edges():
    p = small_params()
    data = experiments.run_continuation(p, 0.5, 0, [0.123], "noise_seeded")
    assert any(abs(t - 0.123) < 1e-12 for t in data.snapshot_times)
    t_c = data.t_c
    # |u(pi)| near 2 t_c exceeds its pre-blow-up value
    t2 = min(data.snapshot_times, key=lambda t: abs(t - 2.0 * t_c))
    t0 = min(data.snapshot_times, key=lambda t: abs(t - 0.0))
    assert data.u_edge_moduli[t2] > data.u_edge_moduli[t0]


def test_run_fourier_snapshots_default_times():
    data = experiments.run_fourier_snapshots(small_params(), None)
    assert set(data.integrations) == {"solve", "complex_path"}
    assert len(data.times) == 3
    assert len(data.moduli) == 3
    assert data.k[0] == 1
    # the post-blow-up snapshot is the widest spectrum of the three
    assert np.isnan(data.local_law[0]) and np.isfinite(data.local_law[5])


def test_snapshot_closer_to_t_c_than_the_detour_matches_the_noise_run():
    # a time past t_c but before t_c + 0.1 t_c narrows the detour to end
    # on it; the column agrees with the noise-seeded run through t_c
    p = ModelParams(alpha=0.25, epsilon=0.1, n_modes=32,
                    integrator=IntegratorConfig(rtol=1e-12, atol=1e-12))
    solve, rep = solve_to_blowup(p)
    t = 1.05 * rep.t_c
    data = experiments.run_fourier_snapshots(p, [t])
    r = 0.1 * rep.t_c
    noise = continue_past_blowup(p, solve.state_at(rep.t_c - r),
                                 1.2 * rep.t_c, rep.t_c, r, 0, [t])
    want = np.abs(noise.state_at(t)[p.n_modes + 1:])
    assert np.max(np.abs(data.moduli[0] - want)) <= 1e-9


def test_snapshots_before_t_c_need_no_detour():
    data = experiments.run_fourier_snapshots(small_params(), [0.05, 0.1])
    assert set(data.integrations) == {"solve"}

"""Two-mode truncations: the rescaled Fourier field and its breakdown
event, the Taylor field, and the paper's forms against trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.experiments import TABLE1_ALPHAS, TABLE1_EPSILONS
from blowup_lab.integrator import IntegratorConfig, Trajectory
from blowup_lab.reduced import _field, solve_two_mode
from paper_oracle import (fourier_ansatz_blowup, near_blowup_forms,
                          solve_taylor_two_mode, taylor_conserved_quantity,
                          taylor_two_mode_rhs)
from run_defaults import TOLERANCES as DEFAULT

CELLS = [(a, e) for a in TABLE1_ALPHAS for e in TABLE1_EPSILONS]


def fourier_dt(a, b):
    """d(log a, r, t)/dt at (a, b): the field over dt/dtau = a(2 - r^2)."""
    r = b / a
    return _field(np.array([math.log(a), r, 0.0]), 0).real / (a * (2 - r * r))


def taylor_field(a, b):
    return taylor_two_mode_rhs(np.array([a, b], dtype=complex), 0.0).real


def test_fourier_rhs_closed_form_values():
    # off the breakdown the rescaled field gives the paper's da/dt, db/dt
    for a, b in ((1.0, 0.25), (0.3, 0.4), (2.0, 3.5)):
        dloga, dr, dt = fourier_dt(a, b)
        den = b * b - 2 * a * a
        da = (2 * a * b * b + 2 * a * a - b * b) / den
        db = b * (2 * a * a - 3 * b * b) / den
        assert dloga == pytest.approx(da / a, rel=1e-12)
        assert dr == pytest.approx((db - (b / a) * da) / a, rel=1e-12)
        assert dt == pytest.approx(1.0, rel=1e-12)
    # on r^2 = 2 t stops, and dr/dtau = 8 sqrt(2) a makes a simple root
    _, dr, dt = _field(np.array([math.log(4.0), math.sqrt(2.0), 0.0]), 0).real
    assert dr == pytest.approx(32.0 * math.sqrt(2.0)) and abs(dt) < 1e-14


def test_fourier_rhs_on_the_blowup_diagonal():
    # on b = a the slopes reduce to da/dt = -(1 + 2a), db/dt = a: finite
    # and unequal, so the trajectory crosses the diagonal transversally
    for a in (0.1, 0.5, 2.0):
        dloga, dr, _ = fourier_dt(a, a)
        assert dloga * a == pytest.approx(-(1.0 + 2.0 * a))
        assert dr * a + dloga * a == pytest.approx(a)


def test_taylor_rhs_values_and_domain():
    da, db = taylor_field(2.0, 0.25)
    assert da == pytest.approx(-0.5)
    assert db == pytest.approx(-8.0 * 0.0625 / 2.0)
    assert np.all(np.isnan(taylor_field(0.0, 0.1)))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 4.0), st.floats(0.01, 1.0))
def test_conserved_quantity_is_stationary(a, b):
    # dQ/dt = (2/b - 1/b^2) b' + (8/a) a' must vanish identically on the
    # Taylor vector field
    da, db = taylor_field(a, b)
    dq = (2.0 / b - 1.0 / b ** 2) * db + (8.0 / a) * da
    scale = abs(8.0 / a * da) + abs((2.0 / b - 1.0 / b ** 2) * db) + 1.0
    assert abs(dq) <= 1e-9 * scale


def test_conserved_quantity_domain():
    with pytest.raises(ValueError):
        taylor_conserved_quantity(-1.0, 0.1)


def test_fourier_run_event_before_breakdown():
    traj, t_c_prime = solve_two_mode(1.0, 0.01, DEFAULT)
    ansatz, t_event = fourier_ansatz_blowup(1.0, 0.01, DEFAULT)
    assert 0.0 < t_event < t_c_prime
    # paper-grade values: t_c' - t_c ~ 9.5e-4 with t_c ~ 0.996241
    assert t_c_prime == pytest.approx(0.996241 + 9.5e-4, abs=3e-4)
    # at the event, a = b to the root tolerance
    a, b = ansatz.states[-1]
    assert ansatz.times[-1] == t_event and abs(a - b) < 1e-9
    # the run ends on the breakdown r^2 = 2, where t is at its maximum
    _, r, t = np.array(traj.states).real.T
    assert r[-1] ** 2 == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.diff(t) > 0.0) and t[-1] == t_c_prime


def test_taylor_run_blowup_time_scaling():
    # t_c' ~ alpha(1 + 2 eps) + O(eps^2) for initial data (alpha, eps)
    eps = 0.01
    _, t_c_prime = solve_taylor_two_mode(1.0, eps, DEFAULT)
    assert t_c_prime == pytest.approx(1.0 + 2.0 * eps, abs=5e-3)


def test_solve_two_mode_small_cell():
    traj, t_c_prime = solve_two_mode(0.25, 0.1, DEFAULT)
    assert t_c_prime == pytest.approx(0.161963 - 3.6e-4, abs=2e-4)
    assert len(traj.times) > 10


def test_solve_two_mode_at_loose_tolerance():
    # a tolerance where pinning t_c' by step-size collapse fails
    _, t_c_prime = solve_two_mode(1.0, 0.001,
                                  IntegratorConfig(rtol=1e-8, atol=1e-8))
    assert abs(t_c_prime - solve_two_mode(1.0, 0.001, DEFAULT)[1]) <= 1e-8


@pytest.fixture(scope="module")
def tight_t_c_prime():
    tight = IntegratorConfig(rtol=1e-14, atol=1e-14)
    return {cell: solve_two_mode(*cell, tight)[1] for cell in CELLS}


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_t_c_prime_converges_with_tolerance(tol, tight_t_c_prime):
    # every Table-1 cell: t_c' within tol of its 1e-14 value, no crawl
    for cell in CELLS:
        traj, t_c_prime = solve_two_mode(*cell,
                                         IntegratorConfig(rtol=tol, atol=tol))
        assert abs(t_c_prime - tight_t_c_prime[cell]) <= tol, cell
        assert traj.stats.accepted <= 2000, cell


def test_near_blowup_forms_fourier():
    ansatz, t_event = fourier_ansatz_blowup(1.0, 0.01, DEFAULT)
    a_c, t_s = near_blowup_forms("fourier", ansatz, t_event)
    # a_c ~ eps e^{-alpha}
    assert a_c == pytest.approx(0.01 * math.exp(-1.0), rel=0.1)
    # the fitted forms reproduce the trajectory near the event
    a, b = ansatz.states[ansatz.times.index(t_s)]
    d = t_event - t_s
    assert a_c + (1.0 + 2.0 * a_c) * d == pytest.approx(a, rel=0.05)
    assert a_c * (1.0 - d) == pytest.approx(b, rel=1e-6)


def test_conserved_quantity_drift_along_trajectory():
    # Q amplifies state error by ~1/b^2, so the drift check integrates
    # tighter than the default tolerance and stops short of the terminal
    # stretch where the vector field is singular
    tight = IntegratorConfig(rtol=1e-14, atol=1e-14)
    traj, _ = solve_taylor_two_mode(1.0, 0.01, tight)
    qs = [taylor_conserved_quantity(y[0].real, y[1].real)
          for y in traj.states if y[0].real > 1e-6 and y[1].real > 0]
    drift = max(abs(q - qs[0]) for q in qs)
    span = traj.times[-1] - traj.times[0]
    assert drift / span <= 1e-9


def test_near_blowup_forms_taylor():
    traj, t_c_prime = solve_taylor_two_mode(1.0, 0.01, DEFAULT)
    b_c, _ = near_blowup_forms("taylor", traj, t_c_prime)
    assert 8.0 * 0.01 * b_c == pytest.approx(1.0, abs=0.15)
    # a trajectory with no sample in the matching window cannot be fitted
    with pytest.raises(ValueError):
        near_blowup_forms("taylor", Trajectory(times=traj.times[:1],
                                               states=traj.states[:1]),
                          t_c_prime)

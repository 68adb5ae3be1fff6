"""Planar two-mode truncations: vector fields, events, first integral,
near-blow-up forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.reduced import (NearBlowupFit, TwoModeState,
                                fourier_two_mode_rhs, near_blowup_forms,
                                solve_two_mode, solve_two_mode_run,
                                taylor_conserved_quantity, taylor_two_mode_rhs)


def test_fourier_rhs_closed_form_values():
    # generic interior point, checked against the defining expressions
    a, b = 1.0, 0.25
    da, db = fourier_two_mode_rhs(TwoModeState(a, b))
    den = b * b - 2 * a * a
    assert da == pytest.approx((2 * a * b * b + 2 * a * a - b * b) / den)
    assert db == pytest.approx(b * (2 * a * a - 3 * b * b) / den)


def test_fourier_rhs_on_the_blowup_diagonal():
    # on b = a the denominator is -a^2 and the slopes reduce to
    # da/dt = -(1 + 2a), db/dt = a: finite and unequal, so the
    # trajectory crosses the diagonal transversally
    for a in (0.1, 0.5, 2.0):
        da, db = fourier_two_mode_rhs(TwoModeState(a, a))
        assert da == pytest.approx(-(1.0 + 2.0 * a))
        assert db == pytest.approx(a)


def test_fourier_rhs_denominator_singularity():
    a = 1.0
    with pytest.raises(ZeroDivisionError):
        fourier_two_mode_rhs(TwoModeState(a, math.sqrt(2.0) * a))


def test_taylor_rhs_values_and_domain():
    da, db = taylor_two_mode_rhs(TwoModeState(2.0, 0.25))
    assert da == pytest.approx(-0.5)
    assert db == pytest.approx(-8.0 * 0.0625 / 2.0)
    with pytest.raises(ZeroDivisionError):
        taylor_two_mode_rhs(TwoModeState(0.0, 0.1))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 4.0), st.floats(0.01, 1.0))
def test_conserved_quantity_is_stationary(a, b):
    # dQ/dt = (2/b - 1/b^2) b' + (8/a) a' must vanish identically on the
    # Taylor vector field
    da, db = taylor_two_mode_rhs(TwoModeState(a, b))
    dq = (2.0 / b - 1.0 / b ** 2) * db + (8.0 / a) * da
    scale = abs(8.0 / a * da) + abs((2.0 / b - 1.0 / b ** 2) * db) + 1.0
    assert abs(dq) <= 1e-9 * scale


def test_conserved_quantity_domain():
    with pytest.raises(ValueError):
        taylor_conserved_quantity(TwoModeState(-1.0, 0.1))


def test_fourier_run_event_before_breakdown():
    run = solve_two_mode_run("fourier", 1.0, 0.01)
    assert 0.0 < run.t_event < run.t_c_prime
    # paper-grade values: t_c' - t_c ~ 9.5e-4 with t_c ~ 0.996241
    assert run.t_c_prime == pytest.approx(0.996241 + 9.5e-4, abs=3e-4)
    # at the event, a = b to the root tolerance
    i = np.argmin(np.abs(np.array(run.trajectory.times) - run.t_event))
    a, b = run.trajectory.states[i].real
    assert abs(a - b) < 1e-9


def test_taylor_run_blowup_time_scaling():
    # t_c' ~ alpha(1 + 2 eps) + O(eps^2) for initial data (alpha, eps)
    eps = 0.01
    run = solve_two_mode_run("taylor", 1.0, eps)
    assert run.t_event == run.t_c_prime
    assert run.t_c_prime == pytest.approx(1.0 + 2.0 * eps, abs=5e-3)


def test_solve_two_mode_wrapper():
    traj, t_c_prime = solve_two_mode("fourier", 0.25, 0.1)
    assert t_c_prime == pytest.approx(0.161963 - 3.6e-4, abs=2e-4)
    assert len(traj.times) > 10
    with pytest.raises(ValueError):
        solve_two_mode("cubic", 1.0, 0.1)


def test_conserved_quantity_drift_along_trajectory():
    # Q amplifies state error by ~1/b^2, so the drift check integrates
    # tighter than the default tolerance and stops short of the terminal
    # stretch where the vector field is singular
    from blowup_lab.integrator import IntegratorConfig
    cfg = IntegratorConfig(rtol=1e-14, atol=1e-14, h_init=1e-4)
    run = solve_two_mode_run("taylor", 1.0, 0.01, cfg=cfg)
    qs = [taylor_conserved_quantity(TwoModeState(y[0].real, y[1].real))
          for y in run.trajectory.states
          if y[0].real > 1e-6 and y[1].real > 0]
    drift = max(abs(q - qs[0]) for q in qs)
    span = run.trajectory.times[-1] - run.trajectory.times[0]
    assert drift / span <= 1e-9


def test_near_blowup_forms_fourier():
    run = solve_two_mode_run("fourier", 1.0, 0.01)
    fit = near_blowup_forms("fourier", run.trajectory, run.t_event)
    # a_c ~ eps e^{-alpha}
    assert fit.fitted_constant == pytest.approx(0.01 * math.exp(-1.0),
                                                rel=0.1)
    # the fitted forms reproduce the trajectory near the event
    t_s = fit.t_sample
    i = np.argmin(np.abs(np.array(run.trajectory.times) - t_s))
    a, b = run.trajectory.states[i].real
    assert fit.a_of_t(t_s) == pytest.approx(a, rel=0.05)
    assert fit.b_of_t(t_s) == pytest.approx(b, rel=1e-6)


def test_near_blowup_forms_taylor():
    run = solve_two_mode_run("taylor", 1.0, 0.01)
    fit = near_blowup_forms("taylor", run.trajectory, run.t_c_prime)
    assert 8.0 * 0.01 * fit.fitted_constant == pytest.approx(1.0, abs=0.15)
    with pytest.raises(ValueError):
        near_blowup_forms("taylor", run.trajectory, run.t_c_prime,
                          window=(1e-20, 3e-20))

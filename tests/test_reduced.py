"""Planar two-mode truncations: vector fields, events, and the first
integral and near-blow-up forms of the paper against the trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.integrator import IntegratorConfig
from blowup_lab.reduced import _rhs_vec, solve_two_mode
from paper_oracle import near_blowup_forms, taylor_conserved_quantity

DEFAULT = IntegratorConfig()


def field(kind, a, b):
    """The two-mode vector field at (a, b) as two floats."""
    return _rhs_vec(kind)(np.array([a, b], dtype=complex), 0.0).real


def test_fourier_rhs_closed_form_values():
    # generic interior point, checked against the defining expressions
    a, b = 1.0, 0.25
    da, db = field("fourier", a, b)
    den = b * b - 2 * a * a
    assert da == pytest.approx((2 * a * b * b + 2 * a * a - b * b) / den)
    assert db == pytest.approx(b * (2 * a * a - 3 * b * b) / den)


def test_fourier_rhs_on_the_blowup_diagonal():
    # on b = a the denominator is -a^2 and the slopes reduce to
    # da/dt = -(1 + 2a), db/dt = a: finite and unequal, so the
    # trajectory crosses the diagonal transversally
    for a in (0.1, 0.5, 2.0):
        da, db = field("fourier", a, a)
        assert da == pytest.approx(-(1.0 + 2.0 * a))
        assert db == pytest.approx(a)


def test_fourier_rhs_denominator_singularity():
    # NaN on b^2 = 2a^2 makes the stepper reject the step
    assert np.all(np.isnan(field("fourier", 1.0, math.sqrt(2.0))))


def test_taylor_rhs_values_and_domain():
    da, db = field("taylor", 2.0, 0.25)
    assert da == pytest.approx(-0.5)
    assert db == pytest.approx(-8.0 * 0.0625 / 2.0)
    assert np.all(np.isnan(field("taylor", 0.0, 0.1)))
    with pytest.raises(ValueError):
        _rhs_vec("cubic")


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 4.0), st.floats(0.01, 1.0))
def test_conserved_quantity_is_stationary(a, b):
    # dQ/dt = (2/b - 1/b^2) b' + (8/a) a' must vanish identically on the
    # Taylor vector field
    da, db = field("taylor", a, b)
    dq = (2.0 / b - 1.0 / b ** 2) * db + (8.0 / a) * da
    scale = abs(8.0 / a * da) + abs((2.0 / b - 1.0 / b ** 2) * db) + 1.0
    assert abs(dq) <= 1e-9 * scale


def test_conserved_quantity_domain():
    with pytest.raises(ValueError):
        taylor_conserved_quantity(-1.0, 0.1)


def test_fourier_run_event_before_breakdown():
    run = solve_two_mode("fourier", 1.0, 0.01, DEFAULT)
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
    run = solve_two_mode("taylor", 1.0, eps, DEFAULT)
    assert run.t_event == run.t_c_prime
    assert run.t_c_prime == pytest.approx(1.0 + 2.0 * eps, abs=5e-3)


def test_solve_two_mode_small_cell():
    run = solve_two_mode("fourier", 0.25, 0.1, DEFAULT)
    assert run.t_c_prime == pytest.approx(0.161963 - 3.6e-4, abs=2e-4)
    assert len(run.trajectory.times) > 10
    with pytest.raises(ValueError):
        solve_two_mode("cubic", 1.0, 0.1, DEFAULT)


def test_conserved_quantity_drift_along_trajectory():
    # Q amplifies state error by ~1/b^2, so the drift check integrates
    # tighter than the default tolerance and stops short of the terminal
    # stretch where the vector field is singular
    cfg = IntegratorConfig(rtol=1e-14, atol=1e-14)
    run = solve_two_mode("taylor", 1.0, 0.01, cfg)
    qs = [taylor_conserved_quantity(y[0].real, y[1].real)
          for y in run.trajectory.states
          if y[0].real > 1e-6 and y[1].real > 0]
    drift = max(abs(q - qs[0]) for q in qs)
    span = run.trajectory.times[-1] - run.trajectory.times[0]
    assert drift / span <= 1e-9


def test_near_blowup_forms_fourier():
    run = solve_two_mode("fourier", 1.0, 0.01, DEFAULT)
    a_c, t_s = near_blowup_forms("fourier", run.trajectory, run.t_event)
    # a_c ~ eps e^{-alpha}
    assert a_c == pytest.approx(0.01 * math.exp(-1.0), rel=0.1)
    # the fitted forms reproduce the trajectory near the event
    i = run.trajectory.times.index(t_s)
    a, b = run.trajectory.states[i].real
    d = run.t_event - t_s
    assert a_c + (1.0 + 2.0 * a_c) * d == pytest.approx(a, rel=0.05)
    assert a_c * (1.0 - d) == pytest.approx(b, rel=1e-6)


def test_near_blowup_forms_taylor():
    run = solve_two_mode("taylor", 1.0, 0.01, DEFAULT)
    b_c, _ = near_blowup_forms("taylor", run.trajectory, run.t_c_prime)
    assert 8.0 * 0.01 * b_c == pytest.approx(1.0, abs=0.15)

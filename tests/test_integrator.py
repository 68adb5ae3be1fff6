"""Adaptive RK5(4): accuracy, dense output, events, complex-time paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.integrator import (EventSpec, IntegratorConfig,
                                   MaxStepsExceeded, StiffnessOrSingularity,
                                   integrate, integrate_fixed, integrate_path,
                                   line_segment, order_check, semicircle)


def decay(y, t):
    return -y


def test_linear_problem_accuracy():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12)
    traj, hit = integrate(decay, np.array([1.0 + 0j]), 0.0, 2.0, cfg)
    assert hit is None
    assert traj.times[-1] == pytest.approx(2.0)
    assert abs(traj.states[-1][0] - math.exp(-2.0)) < 1e-11


def test_observed_order_is_five():
    slope = order_check(decay, np.array([1.0 + 0j]), 0.0, 1.0,
                        lambda t: np.array([math.exp(-t)]),
                        [0.2, 0.1, 0.05, 0.025])
    assert abs(slope - 5.0) <= 0.3


@settings(max_examples=10, deadline=None)
@given(st.floats(1e-10, 1e-6))
def test_tighter_tolerance_never_much_worse(rtol):
    y_loose = integrate(decay, np.array([1.0 + 0j]), 0.0, 1.0,
                        IntegratorConfig(rtol=rtol, atol=rtol))[0].states[-1]
    y_tight = integrate(decay, np.array([1.0 + 0j]), 0.0, 1.0,
                        IntegratorConfig(rtol=rtol / 100, atol=rtol / 100)
                        )[0].states[-1]
    exact = math.exp(-1.0)
    assert abs(y_tight[0] - exact) <= 10.0 * max(abs(y_loose[0] - exact), rtol)


def test_dense_output_matches_exact_solution_between_steps():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10, h_init=0.05, h_max=0.1)
    traj, _ = integrate(decay, np.array([1.0 + 0j]), 0.0, 1.0, cfg)
    for t in np.linspace(0.03, 0.97, 17):
        assert abs(traj.state_at(t)[0] - math.exp(-t)) < 1e-9


def test_event_located_to_root_tolerance():
    # y' = -1, y(0) = 1 crosses zero at exactly t = 1
    ev = EventSpec(lambda y: float(y[0].real), direction="decreasing",
                   root_tol=1e-13)
    traj, hit = integrate(lambda y, t: np.array([-1.0 + 0j]),
                          np.array([1.0 + 0j]), 0.0, 2.0,
                          IntegratorConfig(), events=[ev])
    assert hit is not None
    assert abs(hit.t - 1.0) < 1e-12
    assert traj.times[-1] == pytest.approx(hit.t)


def test_event_direction_filter():
    # y = sin t crosses zero upward at 0 (skipped: starts at the root) and
    # downward at pi; an increasing-only event must skip the pi crossing
    rhs = lambda y, t: np.array([math.cos(t) + 0j])
    ev_up = EventSpec(lambda y: float(y[0].real), direction="increasing")
    traj, hit = integrate(rhs, np.array([0.5 + 0j]), 1.0, 7.0,
                          IntegratorConfig(), events=[ev_up])
    # sin-like solution y = sin(t) + c; with y(1) = 0.5 the observable is
    # 0.5 - sin(1) + sin(t): first increasing crossing after the minimum
    assert hit is not None
    assert hit.t > 4.0


def test_blowup_raises_stiffness_with_partial_trajectory():
    # y' = y^2 blows up at t = 1 for y(0) = 1
    with pytest.raises(StiffnessOrSingularity) as exc_info:
        integrate(lambda y, t: y * y, np.array([1.0 + 0j]), 0.0, 2.0,
                  IntegratorConfig(rtol=1e-10, atol=1e-10))
    exc = exc_info.value
    assert exc.trajectory is not None
    assert abs(exc.t - 1.0) < 1e-4
    assert len(exc.trajectory.times) > 10


def test_max_steps_exceeded_carries_trajectory():
    with pytest.raises(MaxStepsExceeded) as exc_info:
        integrate(decay, np.array([1.0 + 0j]), 0.0, 100.0,
                  IntegratorConfig(h_max=1e-3, max_steps=50))
    assert exc_info.value.trajectory is not None


def test_nan_rhs_is_treated_as_step_rejection():
    # rhs finite below y=2, NaN above: the stepper must shrink and stall
    # rather than propagate NaN
    def rhs(y, t):
        if y[0].real > 2.0:
            return np.array([np.nan + 0j])
        return y

    with pytest.raises(StiffnessOrSingularity):
        integrate(rhs, np.array([1.0 + 0j]), 0.0, 5.0, IntegratorConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h_init=1e-20, h_min=1e-10)


def test_fixed_step_propagation():
    y = integrate_fixed(decay, np.array([1.0 + 0j]), 0.0, 1.0, 0.01)
    assert abs(y[0] - math.exp(-1.0)) < 1e-10


def test_path_integration_matches_real_axis_for_entire_function():
    # y' = y is analytic everywhere: a semicircle detour must return the
    # same value as the straight real-axis path
    rhs = lambda y, t: y
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12)
    straight = integrate_path(rhs, np.array([1.0 + 0j]),
                              [line_segment(0.0, 2.0)], cfg)
    detour = integrate_path(rhs, np.array([1.0 + 0j]),
                            [line_segment(0.0, 0.5),
                             semicircle(1.0, 0.5, upper=True),
                             line_segment(1.5, 2.0)], cfg)
    assert abs(straight.states[-1][0] - math.exp(2.0)) < 1e-9
    assert abs(detour.states[-1][0] - straight.states[-1][0]) < 1e-9
    assert detour.path_times[-1] == pytest.approx(2.0)


def test_path_semicircle_parameterization():
    seg = semicircle(1.0, 0.5, upper=True)
    assert seg.t_of_s(0.0) == pytest.approx(0.5)
    assert seg.t_of_s(1.0) == pytest.approx(1.5)
    assert seg.t_of_s(0.5).imag == pytest.approx(0.5)
    # derivative consistent with finite differences
    h = 1e-7
    fd = (seg.t_of_s(0.3 + h) - seg.t_of_s(0.3 - h)) / (2 * h)
    assert seg.dt_ds(0.3) == pytest.approx(fd, rel=1e-6)

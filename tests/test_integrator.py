"""Adaptive RK5(4): accuracy, dense output, events, complex-time paths."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from blowup_lab import integrator
from blowup_lab.integrator import (EventSpec, IntegrationError,
                                   IntegratorConfig, MaxStepsExceeded,
                                   StiffnessOrSingularity, brentq,
                                   integrate, integrate_path)
from fixed_step import integrate_fixed, order_check
from run_defaults import TOLERANCES


def decay(y, t):
    return -y


def test_linear_problem_accuracy():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12)
    traj = integrate(decay, np.array([1.0 + 0j]), 0.0, 2.0, cfg)
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
                        IntegratorConfig(rtol=rtol, atol=rtol)).states[-1]
    y_tight = integrate(decay, np.array([1.0 + 0j]), 0.0, 1.0,
                        IntegratorConfig(rtol=rtol / 100, atol=rtol / 100)
                        ).states[-1]
    exact = math.exp(-1.0)
    assert abs(y_tight[0] - exact) <= 10.0 * max(abs(y_loose[0] - exact), rtol)


def test_dense_output_matches_exact_solution_between_steps(monkeypatch):
    monkeypatch.setattr(integrator, "_H_INIT", 0.05)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10)
    traj = integrate(decay, np.array([1.0 + 0j]), 0.0, 1.0, cfg)
    for t in np.linspace(0.03, 0.97, 17):
        assert abs(traj.state_at(t)[0] - math.exp(-t)) < 1e-9


def test_event_located_to_root_tolerance():
    # y' = -1, y(0) = 1 crosses zero at exactly t = 1
    ev = EventSpec(lambda y: float(y[0].real), direction="decreasing",
                   root_tol=1e-13)
    traj = integrate(lambda y, t: np.array([-1.0 + 0j]),
                     np.array([1.0 + 0j]), 0.0, 2.0, TOLERANCES, events=[ev])
    # the run ends at the root: its last time, with the state there
    assert abs(traj.times[-1] - 1.0) < 1e-12
    assert abs(traj.states[-1][0]) < 1e-12


def test_event_already_at_its_root_at_t0_gives_the_first_state_alone():
    calls = []

    def rhs(y, t):
        calls.append(t)
        return -y

    ev = EventSpec(lambda y: float(y[0].real), direction="decreasing",
                   root_tol=1e-13)
    traj = integrate(rhs, np.array([1e-14]), 0.5, 2.0, TOLERANCES,
                     events=[ev])
    assert traj.times == [0.5] and traj.dense_segments == []
    assert traj.states[0][0] == 1e-14
    assert calls == [] and traj.stats.rhs_calls == 0


def test_a_run_without_an_accepted_step_records_no_step_sizes():
    ev = EventSpec(lambda y: float(y[0].real))
    traj = integrate(decay, np.array([0.0]), 0.0, 1.0, TOLERANCES,
                     events=[ev])
    record = traj.stats.record()
    assert record["accepted"] == 0 and record["arithmetic"] == "real"
    assert (record["h_min"], record["h_median"], record["h_max"]) \
        == (None, None, None)


def test_a_non_finite_first_rhs_raises():
    with pytest.raises(IntegrationError,
                       match=re.escape("rhs non-finite at t0 = 0.5")):
        integrate(lambda y, t: np.full_like(y, np.inf), np.array([1.0]),
                  0.5, 1.0, TOLERANCES)


def test_event_that_never_fires_raises_naming_the_span():
    # y' = -y stays above zero on [0, 2]: reaching t1 with the event
    # armed is an error of its own, not a step-size underflow
    ev = EventSpec(lambda y: float(y[0].real), direction="decreasing",
                   root_tol=1e-13)
    with pytest.raises(IntegrationError,
                       match=re.escape("no event root in [0.0, 2.0]")) as exc:
        integrate(decay, np.array([1.0]), 0.0, 2.0, TOLERANCES, events=[ev])
    assert not isinstance(exc.value, StiffnessOrSingularity)


# functions with one sign change, at r, and a steepness c > 0; each
# takes an array x of one point per lane
BRACKETED = (
    lambda r, c: lambda x: (x - r) * (1.0 + c * x * x),
    lambda r, c: lambda x: np.arctan(c * (x - r)),
    lambda r, c: lambda x: np.expm1(c * (x - r)),
    lambda r, c: lambda x: np.tanh(c * (x - r)) ** 3,
)


def one_lane(f, a, b, xtol):
    """brentq on the one bracket [a, b] of a function of a number:
    (root, calls)."""
    root, calls = brentq(lambda x, _: [f(float(x[0]))], [a], [b], xtol)
    return root[0], calls[0]


def scalar(g):
    """g, a function of an array, as a function of a number."""
    return lambda x: float(g(np.array([x]))[0])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(BRACKETED))), st.floats(-2.0, 2.0),
       st.floats(1e-3, 3.0), st.floats(1e-3, 3.0), st.floats(0.1, 30.0),
       st.floats(-15.0, -1.0))
def test_brentq_matches_scipy_step_for_step(family, r, left, right, c,
                                            log_xtol):
    # the same root bits after the same number of calls, or the same
    # failure to converge
    f = scalar(BRACKETED[family](r, c))
    a, b, xtol = r - left, r + right, 10.0 ** log_xtol
    try:
        expected, info = scipy_brentq(f, a, b, xtol=xtol, full_output=True)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            one_lane(f, a, b, xtol)
        return
    root, calls = one_lane(f, a, b, xtol)
    assert root == expected
    assert calls == info.function_calls


lane = st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 3.0),
                 st.floats(1e-3, 3.0), st.floats(0.1, 30.0))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(BRACKETED))),
       st.lists(lane, min_size=1, max_size=12), st.floats(-15.0, -1.0))
def test_brentq_lanes_match_scipy_step_for_step(family, lanes, log_xtol):
    # each lane of one call reaches the root bits of scipy's brentq on its
    # own bracket after the same number of calls, however many lanes
    # share the call and whenever they finish; a lane that fails to
    # converge fails the call
    r, left, right, c = (np.array(v) for v in zip(*lanes))
    xtol = 10.0 ** log_xtol
    evaluated = []

    def f(x, i):
        evaluated.append(i)
        return BRACKETED[family](r[i], c[i])(x)

    try:
        expected = [scipy_brentq(scalar(BRACKETED[family](r[i], c[i])),
                                 r[i] - left[i], r[i] + right[i], xtol=xtol,
                                 full_output=True)
                    for i in range(len(lanes))]
    except RuntimeError:
        with pytest.raises(RuntimeError):
            brentq(f, r - left, r + right, xtol)
        return
    roots, calls = brentq(f, r - left, r + right, xtol)
    assert list(roots) == [root for root, _ in expected]
    assert list(calls) == [info.function_calls for _, info in expected]
    # f sees each lane only while it iterates
    assert sum(len(i) for i in evaluated) == calls.sum()


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0, ValueError),
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    (lambda x: (x - 0.3) ** 3, -1.0, 1.0, RuntimeError),
], ids=["nan", "same-sign", "no-convergence"])
def test_brentq_raises_as_scipy_does(f, a, b, error):
    with pytest.raises(error):
        scipy_brentq(f, a, b, xtol=1e-12)
    with pytest.raises(error):
        one_lane(f, a, b, 1e-12)


def test_brentq_returns_an_endpoint_root():
    assert one_lane(lambda x: x - 1.0, 1.0, 2.0, 1e-12) == (1.0, 2)
    assert one_lane(lambda x: x - 2.0, 1.0, 2.0, 1e-12) == (2.0, 2)


def test_event_direction_filter():
    # y = sin t - 1/2 crosses zero upward at pi/6 and downward at 5 pi/6:
    # the upward crossing does not fire
    # (event location takes one-row blocks with a column of times)
    rhs = lambda y, t: np.cos(t) + 0j * y
    ev = EventSpec(lambda y: float(y[0].real), direction="decreasing",
                   root_tol=1e-13)
    traj = integrate(rhs, np.array([-0.5 + 0j]), 0.0, 4.0,
                     TOLERANCES, events=[ev])
    assert abs(traj.times[-1] - 5.0 * math.pi / 6.0) < 1e-9
    # a direction the integrator would not honour is refused
    for direction in ("increasing", "any"):
        with pytest.raises(ValueError):
            EventSpec(ev.observable, direction=direction, root_tol=1e-13)


def test_blowup_raises_stiffness_with_partial_trajectory():
    # y' = y^2 blows up at t = 1 for y(0) = 1
    with pytest.raises(StiffnessOrSingularity) as exc_info:
        integrate(lambda y, t: y * y, np.array([1.0 + 0j]), 0.0, 2.0,
                  IntegratorConfig(rtol=1e-10, atol=1e-10))
    exc = exc_info.value
    assert exc.trajectory is not None
    assert abs(exc.t - 1.0) < 1e-4
    assert len(exc.trajectory.times) > 10


def test_max_steps_exceeded_carries_trajectory(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 50)
    with pytest.raises(MaxStepsExceeded) as exc_info:
        integrate(decay, np.array([1.0 + 0j]), 0.0, 100.0, TOLERANCES)
    assert exc_info.value.trajectory is not None
    assert exc_info.value.trajectory.stats.accepted <= 50


def test_nan_rhs_is_treated_as_step_rejection():
    # rhs finite below y=2, NaN above: the stepper must shrink and stall
    # rather than propagate NaN
    def rhs(y, t):
        if y[0].real > 2.0:
            return np.array([np.nan + 0j])
        return y

    with pytest.raises(StiffnessOrSingularity):
        integrate(rhs, np.array([1.0 + 0j]), 0.0, 5.0, TOLERANCES)


def test_no_underflow_is_raised_once_t1_is_reached():
    # the one step onto t1 is accepted; the controller's next proposal
    # lies below _H_MIN, but no step is left to take
    traj = integrate(decay, [1.0], 0.5, 0.5 + 1e-15,
                     IntegratorConfig(1e-10, 1e-10))
    assert traj.times == [0.5, 0.5 + 1e-15]
    assert traj.stats.accepted == 1


@pytest.mark.parametrize("t1", [math.nan, math.inf])
def test_non_finite_end_time_is_refused(t1):
    with pytest.raises(ValueError, match="not finite"):
        integrate(decay, [1.0], 0.0, t1, TOLERANCES)


def test_zero_length_integration_reads_its_one_state():
    # t1 = t0 stores y0 alone, with no dense segment; its time (and the
    # clamp about it) still reads that state
    traj = integrate(decay, [1.0], 0.5, 0.5, TOLERANCES)
    assert traj.times == [0.5] and traj.dense_segments == []
    assert traj.state_at(0.5) is traj.states[0]
    assert traj.state_at(0.5 + 1e-13) is traj.states[0]
    with pytest.raises(IntegrationError, match="outside integrated span"):
        traj.state_at(0.6)


def test_config_validation():
    for rtol, atol in ((0.0, 1e-12), (math.inf, math.inf), (math.nan, 1e-12),
                       (1e-12, math.inf)):
        with pytest.raises(ValueError, match="tolerances"):
            IntegratorConfig(rtol=rtol, atol=atol)


def test_fixed_step_propagation():
    y = integrate_fixed(decay, np.array([1.0 + 0j]), 0.0, 1.0, 0.01)
    assert abs(y[0] - math.exp(-1.0)) < 1e-10


def straight_leg(rhs, y0, a, b, cfg, lin=None):
    """integrate along the segment t = a + s u, |u| = 1, from a to b, with
    s its arc length, as integrate_path steps each of its legs, but with
    every state's dense output kept: dy/ds = u lin y + u rhs(y, t(s))."""
    u = (b - a) / abs(b - a)
    return integrate(lambda ys, s: u * rhs(ys, a + u * s), y0, 0.0,
                     abs(b - a), cfg, lin=None if lin is None else u * lin)


def test_path_integration_matches_real_axis_for_entire_function():
    # y' = y is analytic everywhere: the legs from 0.5 to 1.5 must carry
    # e^0.5 to e^1.5, as the real axis does; the trajectory is the second
    # leg's, its times the arc length along it
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12)
    detour = integrate_path(lambda y, t: y, np.array([math.exp(0.5)]),
                            1.0, 0.5, cfg, np.zeros(1))
    assert detour.times[-1] == abs(0.5 - 0.5j)
    assert detour.stats.arithmetic == "complex"
    assert abs(detour.states[-1][0] - math.exp(1.5)) < 1e-9


def test_path_steps_are_recorded_in_time():
    # a step along a leg is the distance it spans in t, no longer than the
    # leg (sqrt(2) r); the steps of both legs are counted, and they add up
    # to both legs, 2 sqrt(2) r, to roundoff
    radius = 0.01
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12)
    detour = integrate_path(lambda y, t: y, np.array([1.0 + 0j]),
                            1.0, radius, cfg, np.zeros(1))
    h, leg = detour.stats.h_accepted, math.sqrt(2.0) * radius
    assert len(h) == detour.stats.accepted > len(detour.dense_segments) > 3
    assert all(0.0 < step <= leg * (1 + 1e-15) for step in h)
    assert sum(h) == pytest.approx(2.0 * leg, rel=1e-14)
    assert detour.stats.record()["h_max"] <= leg * (1 + 1e-15)


def test_path_takes_the_upper_half_plane_branch():
    # y = sqrt(t - c) solves y' = y / (2 (t - c)), branched at c: from
    # y = i sqrt(r) at c - r the legs through c + i r reach +sqrt(r) at
    # c + r, their mirror images through c - i r -sqrt(r)
    center, radius = 1.0, 0.5
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12)
    y0 = np.array([1j * math.sqrt(radius)])

    def branch(y, t):
        return y / (2.0 * (t - center))

    upper = integrate_path(branch, y0, center, radius, cfg, np.zeros(1))
    assert upper.times[-1] == abs(radius - 1j * radius)
    assert abs(upper.states[-1][0] - math.sqrt(radius)) < 1e-10
    bottom = center - 1j * radius
    lower = straight_leg(branch, y0, center - radius, bottom, cfg)
    lower = straight_leg(branch, lower.states[-1], bottom, center + radius,
                         cfg)
    assert abs(lower.states[-1][0] + math.sqrt(radius)) < 1e-10



# ---- the stepper without a linear part against its first form ----------

# the fifth-order weights as first written, with the zero weight of the
# last stage
B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
               0.0])


def reference_step(rhs, t, y, h, k1):
    """DOPRI5 step with builtin-sum stage combinations, as first written:
    the stepper without a linear part (Lawson weights with lin = 0) must
    match it bit for bit."""
    k = [k1]
    for i in range(1, 7):
        yi = y + h * sum(a * kj for a, kj in zip(integrator._A[i, :i], k))
        ki = rhs(yi, t + integrator._C[i] * h)
        if not np.all(np.isfinite(ki)):
            return None
        k.append(ki)
    y5 = y + h * sum(b * kj for b, kj in zip(B5, k))
    err = h * sum((b5 - b4) * kj for b5, b4, kj in
                  zip(B5, integrator._B4, k))
    return y5, err, k


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def nonlinear(y, t):
    return 1j * y * y - (1.0 + t) * y + np.roll(y, 1) * 0.3


def real_nonlinear(y, t):
    """A real right-hand side, for the real states that the two-mode
    solve steps."""
    return y * y - (1.0 + t) * y + np.roll(y, 1) * 0.3


def test_stacked_step_matches_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    plain = integrator._lawson_tables(np.zeros(9))   # no linear part
    for trial in range(40):
        # complex states, then real ones (the float-weight route)
        y = rng.standard_normal(9)
        rhs = real_nonlinear
        if trial < 20:
            y, rhs = y + 1j * rng.standard_normal(9), nonlinear
        y[trial % 9] = -0.0          # signed zeros must survive as well
        t, h = rng.uniform(0, 1), 10.0 ** rng.uniform(-6, -1)
        k1 = rhs(y, t)
        y5, err, k, ok = integrator._attempt_step(rhs, t, y, h, k1, plain)
        ref = reference_step(rhs, t, y, h, k1)
        assert ok and ref is not None
        assert y5.dtype == y.dtype
        assert same_bits(y5, ref[0]) and same_bits(err, ref[1])
        assert all(same_bits(a, b) for a, b in zip(k, ref[2]))
        # the dense sub-step over the whole step, on a block of one row,
        # is the step's own y5
        y_dense = integrator._attempt_step(rhs, t, y[None],
                                           np.array([[h]]), k1[None],
                                           plain)[0]
        assert same_bits(y_dense[0], y5)


def test_stacked_step_rejects_where_reference_does():
    # finite for Re y < 2 only: the stage that crosses it returns NaN
    def rhs(y, t):
        return np.where(y.real < 2.0, y * y, np.nan)

    y = np.array([1.5 + 0j, 0.1 + 0j])
    k1 = rhs(y, 0.0)
    plain = integrator._lawson_tables(np.zeros(2))
    assert integrator._attempt_step(rhs, 0.0, y, 0.5, k1, plain)[3] is False
    assert reference_step(rhs, 0.0, y, 0.5, k1) is None
    ok_step = integrator._attempt_step(rhs, 0.0, y, 1e-3, k1, plain)
    assert same_bits(ok_step[0], reference_step(rhs, 0.0, y, 1e-3, k1)[0])


def test_combine_adds_in_the_order_of_builtin_sum():
    w = np.array([0.1, -0.0, 3.0, 1e16, -1e16, 0.0, 2.5])
    rows = [np.array([1.0, -0.0, np.nan, np.inf, 1e-300, -0.0], dtype=complex),
            np.array([-0.0, -0.0, 1.0, 1.0, 1.0, -0.0], dtype=complex),
            np.array([1e-17, -0.0, 2.0, -np.inf, 1e-300, -0.0], dtype=complex),
            np.array([1.0, -0.0, 0.5, 2.0, -1.0, -0.0], dtype=complex),
            np.array([1.0, -0.0, 0.5, 2.0, 1.0, -0.0], dtype=complex),
            np.array([3.0 - 1j, -0.0, 0.5, 2.0, 1.0, -0.0j], dtype=complex),
            np.array([1j, -0.0, 0.5, 2.0, 1.0, -0.0 - 0.0j], dtype=complex)]
    for i in range(1, len(w) + 1):
        k = np.array(rows[:i])
        with np.errstate(invalid="ignore"):
            expected = sum(a * kj for a, kj in zip(w[:i], k))
            got = integrator._combine(w[:i, None], k)
        assert same_bits(got, expected)     # NaN payloads included
    # all -0.0 terms: both start from +0.0, so the sum is +0.0
    assert not np.signbit(integrator._combine(np.array([[1.0]]),
                                              np.array([[-0.0 + 0j]])).real)


# ---- the stepper in Lawson form against its first form -----------------

# the direction of the first leg of a detour through Im t > 0: the
# linear part u lin of a leg is complex
UP = (1 + 1j) / abs(1 + 1j)


def lawson_reference(rhs, t, y, h, k1, lin):
    """DOPRI5 step in Lawson form as first written: each factor
    E_ij = exp(lin (c_i - c_j) h) formed by itself (E_66 = 1 included),
    and the stages summed with builtin sum.  Returns y5, err and the
    seven stages; h is a number or an (m, 1) column of step lengths for
    an (m, n) block y."""
    c = integrator._C

    def factor(i, j):
        return np.exp((c[i] - c[j]) * h * lin)

    k = [k1]
    for i in range(1, 7):
        yi = (h * sum(integrator._A[i, j] * factor(i, j) * k[j]
                      for j in range(i))
              + factor(i, 0) * y)
        k.append(rhs(yi, t + c[i] * h))
    err = h * sum((b5 - b4) * factor(6, j) * k[j] for j, (b5, b4) in
                  enumerate(zip(B5, integrator._B4)))
    return yi, err, k


@pytest.mark.parametrize("path", [False, True])
@pytest.mark.parametrize("column", [False, True])
def test_lawson_step_matches_reference_bit_for_bit(column, path):
    k = np.arange(-4, 5)
    lin = -(k * k) * (UP if path else 1.0)
    rng = np.random.default_rng(11)
    for trial in range(20):
        m = 5 if column else 1
        y = rng.standard_normal((m, 9)) + 1j * rng.standard_normal((m, 9))
        y[:, trial % 9] = -0.0       # signed zeros must survive as well
        t = rng.uniform(0, 0.5)
        h = 10.0 ** rng.uniform(-4, -0.5, (m, 1))
        if not column:
            y, h = y[0], float(h[0, 0])
        k1 = block_rhs(y, t)
        tables = integrator._lawson_tables(lin)
        y5, err, stages, ok = integrator._attempt_step(block_rhs, t, y, h, k1,
                                                       tables)
        ref = lawson_reference(block_rhs, t, y, h, k1, lin)
        assert ok and same_bits(y5, ref[0])
        if column:
            # a block takes dense sub-steps, which stop at y5
            assert err is None and stages is None
        else:
            assert same_bits(err, ref[1])
            assert all(same_bits(a, b) for a, b in zip(stages, ref[2]))


def imaginary_rhs(y, t):
    """A right-hand side of imaginary values only, for a state or a block
    with a column of times: a component with a zero real part keeps it
    through a step whose weights are real."""
    return 1j * ((y * np.conj(np.roll(y, 1, axis=-1))).real + t)


@pytest.mark.parametrize("form", ["real", "path", "plain"])
def test_single_state_step_matches_one_row_block_bit_for_bit(form):
    # a single state's step weighs its stages with complex weights, a
    # block's with lin's (float for a real lin; complex for a leg's u lin):
    # the same bits, in the same order of sums.  A weight with an
    # imaginary part would give the components with a zero real part one.
    k = np.arange(-4, 5)
    lin = np.zeros(9) if form == "plain" else -(k * k) * (
        UP if form == "path" else 1.0)
    tables = integrator._lawson_tables(lin)
    rng = np.random.default_rng(17)
    for trial in range(20):
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        y[trial % 3::3] = 1j * y[trial % 3::3].imag
        t, h = rng.uniform(0, 0.5), 10.0 ** rng.uniform(-4, -0.5)
        k1 = imaginary_rhs(y, t)
        y5, _, _, ok = integrator._attempt_step(
            imaginary_rhs, t, y, h, k1, tables)
        row = integrator._attempt_step(imaginary_rhs, t, y[None],
                                       np.array([[h]]), k1[None], tables)
        assert ok and row[3]
        # a block is a dense sub-step: y5 alone, no error estimate
        assert same_bits(y5, row[0][0]) and row[1] is None
        if form != "path":
            assert not np.any(y5[trial % 3::3].real)


def test_error_norm_is_the_rms_that_np_mean_gives():
    rng = np.random.default_rng(13)
    zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
             complex(-0.0, -0.0)]
    for trial in range(60):
        n = int(rng.integers(1, 400))
        err, y0, y1 = (rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 2, n)
                       + 1j * rng.standard_normal(n) for _ in range(3))
        for v in (err, y0, y1):
            at = rng.integers(0, n, n // 4 + 1)
            v[at] = [zeros[i % len(zeros)] for i in range(at.size)]
        if trial % 10 == 0:
            err[:] = zeros[trial // 10 % len(zeros)]
        atol, rtol = 10.0 ** rng.uniform(-14, -3, 2)
        scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
        expected = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))
        got = integrator._error_norm(err, y0, y1, atol, rtol)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


# ---- stored states, statistics and paths ------------------------------

def test_states_are_stored_once_and_read_only():
    y0 = np.array([1.0 + 0j, 2.0 + 0j])
    traj = integrate(decay, y0, 0.0, 1.0, TOLERANCES)
    y0[0] = 99.0                   # the caller's array is not the stored one
    assert traj.states[0][0] == 1.0
    for state, seg in zip(traj.states, traj.dense_segments):
        assert seg.r1 is state
        assert not state.flags.writeable
    with pytest.raises(ValueError):
        traj.states[-1][0] = 0.0


def test_state_dtype_follows_y0_lin_and_the_rhs():
    # real y0, lin and right-hand side step real states, the complex
    # run's to roundoff (a complex division by the float error scale
    # multiplies by its reciprocal, so the steps can differ in the last
    # bits); a complex lin makes the states complex, as on the legs of
    # integrate_path: a real state would drop the imaginary part of its
    # step weights; a complex first right-hand side on real states is
    # refused
    lin = np.array([-1.0, -4.0])

    def rhs(y, t):      # a state, or a block of them with a column of times
        return 0.5 * y * y[..., ::-1] + np.cos(t)

    def runs(y0, f, lin=lin):
        """The arithmetic and the states at a few times, stored and dense."""
        traj = integrate(f, y0, 0.0, 1.0, TOLERANCES, lin=lin)
        states = list(traj.states_at([0.0, 0.3, 0.31, 0.7, 0.95, 1.0]))
        dtype = {"real": np.float64, "complex": complex}
        assert {y.dtype for y in traj.states + states} \
            == {np.dtype(dtype[traj.stats.arithmetic])}
        assert traj.stats.rhs_calls == 1 + 6 * (traj.stats.accepted
                                                + traj.stats.rejected_error)
        return traj.stats.arithmetic, states

    y0 = np.array([1.0, 0.5])
    kind, real = runs(y0, rhs)
    assert kind == "real"
    kind, cast = runs(y0.astype(complex), rhs)
    assert kind == "complex"
    assert all(np.max(np.abs(a - b)) <= 1e-13 for a, b in zip(real, cast))
    with pytest.raises(IntegrationError, match="rhs complex at t0 = 0.0"):
        runs(y0, lambda y, t: rhs(y, t) + 0j)
    kind, rotated = runs(y0, rhs, lin * (1 + 1j))
    assert kind == "complex"
    assert all(a.tobytes() == b.tobytes() for a, b in
               zip(rotated, runs(y0.astype(complex), rhs, lin * (1 + 1j))[1]))
    detour = integrate_path(rhs, y0, 0.5, 0.5, TOLERANCES, lin)
    assert detour.stats.arithmetic == "complex"
    assert detour.states[0].dtype == detour.states[-1].dtype == complex


def test_stats_count_steps_rejections_and_evaluations(monkeypatch):
    monkeypatch.setattr(integrator, "_H_INIT", 0.5)    # rejected at first
    calls = []

    def rhs(y, t):
        calls.append(t)
        return -50.0 * y + np.sin(40.0 * t)

    traj = integrate(rhs, np.array([1.0 + 0j]), 0.0, 2.0,
                     IntegratorConfig(rtol=1e-8, atol=1e-8))
    st = traj.stats
    assert st.accepted == len(traj.dense_segments) == len(traj.times) - 1
    assert st.rhs_calls == len(calls)
    assert st.rejected_error > 0 and st.rejected_nonfinite == 0
    assert st.rhs_calls == 1 + 6 * (st.accepted + st.rejected_error)
    assert st.event_evals == 0


def test_stats_count_nonfinite_rejections_and_event_evaluations():
    def rhs(y, t):
        return np.array([np.nan + 0j]) if y[0].real > 2.0 else y

    with pytest.raises(StiffnessOrSingularity) as exc_info:
        integrate(rhs, np.array([1.0 + 0j]), 0.0, 5.0, TOLERANCES)
    st = exc_info.value.trajectory.stats
    assert st.rejected_nonfinite > 0
    assert st.accepted == len(exc_info.value.trajectory.dense_segments)

    seen = []

    def observable(y):
        seen.append(1)
        return float(y[0].real)

    ev = EventSpec(observable, direction="decreasing", root_tol=1e-13)
    traj = integrate(lambda y, t: np.array([-1.0 + 0j]),
                     np.array([1.0 + 0j]), 0.0, 2.0,
                     TOLERANCES, events=[ev])
    # one call at t0 for the degenerate check, one to initialise, one
    # per accepted step; the rest locate the root
    assert traj.stats.event_evals == len(seen) - 2 - traj.stats.accepted > 0


# ---- dense output lookup ------------------------------------------------

def linear_scan(traj, t):
    """Trajectory.state_at as first written: the first segment that
    covers t, else the endpoint clamps."""
    for seg in traj.dense_segments:
        if seg.t0 <= t <= seg.t0 + seg.h:
            return traj.substep(seg, [t])[0]
    if abs(t - traj.times[0]) <= 1e-12 * max(1.0, abs(t)):
        return traj.states[0]
    if abs(t - traj.times[-1]) <= 1e-12 * max(1.0, abs(t)):
        return traj.states[-1]
    raise IntegrationError(f"t = {t} outside integrated span")


@pytest.mark.parametrize("kind", ["real", "path"])
def test_bisect_lookup_matches_linear_scan(kind):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10)
    lin = np.array([-3.0, -40.0])

    def rhs(y, t):      # a state, or a block of them with a column of times
        first, second = y[..., :1], y[..., 1:]
        return np.concatenate([np.cos(t) + 0j * first, 0.5 * first * second],
                              axis=-1)

    y0 = np.array([1.0 + 0j, 0.5 + 0j])
    if kind == "real":
        traj = integrate(rhs, y0, 0.0, 2.0, cfg, lin=lin)
    else:
        # a leg with complex u lin: the lookups must find their segments
        # by the arc length s, not by the complex t
        traj = straight_leg(rhs, y0, 0.0, 1.0 + 1.0j, cfg, lin)
        assert traj.times[-1] == abs(1.0 + 1.0j)
        assert len(traj.dense_segments) > 5
    times = traj.times

    def lookups(t):
        """The state at t through state_at and through states_at."""
        return (traj.state_at(t), *traj.states_at([t]))

    for i, seg in enumerate(traj.dense_segments):
        # inside a segment: the same segment, the same bits
        mid = seg.t0 + 0.37 * seg.h
        one, many = lookups(mid)
        assert one.tobytes() == many.tobytes() \
            == linear_scan(traj, mid).tobytes()
        # at its end: the stored state, which the scan's sub-step over the
        # whole segment reproduces to roundoff
        end = times[i + 1]
        assert all(s is traj.states[i + 1] for s in lookups(end))
        assert np.max(np.abs(linear_scan(traj, end) - traj.states[i + 1])) \
            <= 1e-14
    # the endpoint clamps
    for t, state in ((times[0] - 1e-13, traj.states[0]),
                     (times[-1] + 1e-13, traj.states[-1])):
        assert all(s is state for s in (*lookups(t), linear_scan(traj, t)))
    # outside the span all three raise the same error
    for t in (times[0] - 1e-3, times[-1] + 1e-3):
        for lookup in (traj.state_at, lambda t: list(traj.states_at([t])),
                       lambda t: linear_scan(traj, t)):
            with pytest.raises(IntegrationError, match=re.escape(
                    f"t = {t} outside integrated span")):
                lookup(t)


def block_rhs(y, t):
    """A nonlinear right-hand side that takes (m, 2) blocks with an (m, 1)
    column of times as well as single states."""
    return 0.5j * y * y[..., ::-1] + np.cos(t)


@pytest.mark.parametrize("kind", ["real", "path"])
def test_block_lookups_match_single_lookups_bit_for_bit(kind):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10)
    lin = np.array([-3.0, -40.0])
    y0 = np.array([1.0 + 0j, 0.5 + 0j])
    if kind == "real":
        traj = integrate(block_rhs, y0, 0.0, 2.0, cfg, lin=lin)
    else:
        traj = straight_leg(block_rhs, y0, 0.0, 1.0 + 1.0j, cfg, lin)
    times, seg = traj.times, traj.dense_segments[3]
    rng = np.random.default_rng(7)
    # 40 times inside one segment (three blocks), random times over the
    # span, every stored time and both clamps
    inside = seg.t0 + seg.h * rng.uniform(1e-6, 1.0, 40)
    spread = rng.uniform(times[0], times[-1], 200)
    clamps = [times[0] - 1e-13, times[-1] + 1e-13]
    ts = np.sort(np.concatenate([inside, spread, times, clamps]))
    got = list(traj.states_at(ts))
    calls = traj.stats.lookup_rhs_calls
    assert len(got) == ts.size
    for t, state in zip(ts, got):
        assert state.tobytes() == traj.state_at(t).tobytes()
    # a block sub-step is five rhs calls whatever its size, and a segment
    # takes one per _BLOCK times it covers
    assert calls % 5 == 0
    assert calls < 5 * (len(traj.dense_segments)
                        + ts.size // integrator._BLOCK + 1)
    # outside the span it raises, after yielding what lies before
    lookups = traj.states_at([times[1], times[-1] + 1e-3])
    assert next(lookups) is traj.states[1]
    with pytest.raises(IntegrationError):
        next(lookups)
    with pytest.raises(IntegrationError):
        list(traj.states_at([times[0] - 1e-3]))


def test_dense_lookups_are_counted():
    traj = integrate(decay, np.array([1.0 + 0j]), 0.0, 1.0,
                     TOLERANCES, lin=np.array([-2.0]))
    calls = traj.stats.rhs_calls
    assert traj.stats.lookup_rhs_calls == 0
    traj.state_at(traj.times[3])                 # stored: no evaluation
    assert traj.stats.lookup_rhs_calls == 0
    traj.state_at(0.5 * (traj.times[3] + traj.times[4]))
    # one sub-step, 5 stages, apart from the solve's own calls
    assert traj.stats.lookup_rhs_calls == 5
    assert traj.stats.rhs_calls == calls


def test_a_non_finite_rhs_in_a_dense_lookup_raises():
    # finite on the single states the solve steps, NaN on the blocks that
    # dense output reads: the lookup raises at its first stage
    def rhs(y, t):
        return np.full_like(y, np.nan) if y.ndim > 1 else -y

    traj = integrate(rhs, np.array([1.0]), 0.0, 1.0, TOLERANCES)
    t = 0.5 * (traj.times[1] + traj.times[2])
    with pytest.raises(IntegrationError,
                       match="rhs non-finite in dense output at t = "):
        traj.state_at(t)
    assert traj.stats.lookup_rhs_calls == 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kept_times_read_the_bits_of_the_full_run(data):
    # y' = -2 y - y, y = exp(-3 t): kept times drawn among the stored
    # times and anywhere in the span, in any order
    lin, y0 = np.array([-2.0]), np.array([1.0 + 0j])
    full = integrate(decay, y0, 0.0, 1.0, TOLERANCES, lin=lin)
    times = full.times
    keep = (data.draw(st.lists(st.sampled_from(times), max_size=4))
            + data.draw(st.lists(st.floats(0.0, 1.0), max_size=8)))
    # kept as well: a time within 1e-12 of each end, which reads the state
    # there, and one outside the span
    clamps = [-5e-13, 1.0 + 5e-13]
    part = integrate(decay, y0, 0.0, 1.0, TOLERANCES, lin=lin,
                     keep=keep + clamps + [1.5])
    # the same steps: only what they hold differs
    assert part.stats.record() == full.stats.record()
    assert [(s.t0, s.h) for s in part.dense_segments] \
        == [(s.t0, s.h) for s in full.dense_segments]
    for t in keep + clamps:
        one, (many,) = part.state_at(t), list(part.states_at([t]))
        assert one.tobytes() == many.tobytes() == full.state_at(t).tobytes()
        # a stored time and a clamp read the stored state itself
        assert (one is many) == (t in times or t in clamps)
    assert part.state_at(clamps[0]) is part.states[0]
    assert part.state_at(clamps[1]) is part.states[-1]
    assert [s.tobytes() for s in part.states_at(sorted(keep))] \
        == [s.tobytes() for s in full.states_at(sorted(keep))]
    other = data.draw(st.floats(times[0], times[-1], exclude_min=True,
                                exclude_max=True).filter(
                                    lambda t: t not in keep))
    for lookup in (part.state_at, lambda t: list(part.states_at([t]))):
        with pytest.raises(IntegrationError,
                           match=re.escape(f"t = {other} was not kept")):
            lookup(other)
        with pytest.raises(IntegrationError,
                           match="t = 1.5 outside integrated span"):
            lookup(1.5)


# ---- Lawson form: the linear part is stepped exactly ---------------------

def test_linear_part_alone_is_exact_without_overflow():
    k = np.arange(-128, 129)
    lin = -(k * k).astype(float)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    zero = lambda yy, t: np.zeros_like(yy)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y5, err, _, ok = integrator._attempt_step(
            zero, 0.0, y, 0.1, np.zeros_like(y),
            integrator._lawson_tables(lin))
    assert ok and np.all(np.isfinite(y5)) and not np.any(err)
    exact = np.exp(lin * 0.1) * y
    assert np.all(np.abs(y5 - exact) <= 4 * np.finfo(float).eps * np.abs(y))
    assert y5[0] == 0.0 and y5[128] == y[128]    # k = -128 gone, k = 0 kept


STIFF = 1e4                     # lambda of y' = -lambda y + cos t


def stiff_exact(t):
    """The solution on the slow manifold,
    (lambda cos t + sin t) / (lambda^2 + 1)."""
    return np.array([(STIFF * math.cos(t) + math.sin(t)) / (STIFF ** 2 + 1)])


def forcing(y, t):
    return np.cos(t) + 0.0 * y


def test_stiff_forced_problem_order():
    lin = np.array([-STIFF])
    y0 = stiff_exact(0.0)
    # lambda h <= 0.4: the nonstiff order 5 of DOPRI5
    slope = order_check(forcing, y0, 0.0, 0.01, stiff_exact,
                        [4e-5, 2e-5, 1e-5, 5e-6], lin)
    assert abs(slope - 5.0) <= 0.3
    # lambda h >= 250: Lawson's stiff order reduction to 1 (the weights
    # E((1 - c_j) h) leave only the c = 1 stages), which the adaptive
    # controller has to see through the error estimate
    slope = order_check(forcing, y0, 0.0, 1.0, stiff_exact,
                        [0.2, 0.1, 0.05, 0.025], lin)
    assert abs(slope - 1.0) <= 0.3


def test_stiff_forced_problem_adaptive_and_dense():
    lin = np.array([-STIFF])
    traj = integrate(forcing, stiff_exact(0.0), 0.0, 1.0,
                     IntegratorConfig(rtol=1e-10, atol=1e-10), lin=lin)
    assert abs(traj.states[-1][0] - stiff_exact(1.0)[0]) < 1e-11
    # between steps the dense sub-step is as accurate as a step
    for t in np.linspace(0.013, 0.987, 41):
        assert abs(traj.state_at(t)[0] - stiff_exact(t)[0]) < 1e-11


def test_lawson_weights_bounded_on_complex_path_legs():
    # u lin on the legs of a continuation detour about t_c = 0.16,
    # r = 0.016, through t_c + i r and through its mirror image t_c - i r:
    # Re u lin <= 0, so every factor |E| <= 1 over steps of every length
    # up to the leg's, single or as a block's column
    k = np.arange(-128, 129)
    lin = -(k * k).astype(float)
    center, radius = 0.16, 0.016
    scale = (1 + 1e-14)
    for top in (center + 1j * radius, center - 1j * radius):
        for a, b in ((center - radius, top), (top, center + radius)):
            u = (b - a) / abs(b - a)
            tables = integrator._lawson_tables(u * lin)
            for h in (abs(b - a), 0.3 * abs(b - a), 1e-5,
                      np.array([[abs(b - a)], [1e-3], [1e-6]])):
                decay, a_, e = integrator._stage_weights(tables, h,
                                                         np.dtype(complex))
                assert np.all(np.abs(decay) <= scale)
                bound = np.abs(integrator._A_PACKED).reshape(
                    (21,) + (1,) * (a_.ndim - 1))
                assert np.all(np.abs(a_) <= bound * scale)
                if e is not None:
                    assert np.all(np.abs(e) <= np.abs(integrator._E)[:, None]
                                  * scale)
    # on the real axis the factors are real: imaginary
    # parts exactly 0 (in the dtype of a single state's stages, float for
    # a block, which has no error weights) and the decays within [0, 1]
    tables = integrator._lawson_tables(lin)
    for dtype in (np.dtype(float), np.dtype(complex)):
        for h in (0.1, np.array([[0.1], [1e-3]])):
            decay, a, e = integrator._stage_weights(tables, h, dtype)
            block = isinstance(h, np.ndarray)
            assert (e is None) == block
            assert {w.dtype for w in (decay, a, e) if w is not None} \
                == {np.dtype(float) if block else dtype}
            assert not any(np.any(np.imag(w)) for w in (decay, a, e)
                           if w is not None)
            assert np.all((0 <= decay.real) & (decay.real <= 1))

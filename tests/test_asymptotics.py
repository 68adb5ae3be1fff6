"""Closed-form approximations, checked against independent oracles
(special functions, FFTs, finite differences) where a value is derived."""

import math

import numpy as np
import pytest
from scipy.special import exp1, expi

from blowup_lab import asymptotics as asy
from paper_oracle import minimal_flatness, turning_time, u_initial_coeff


def test_constants_against_exponential_integrals():
    # C2 = e^{-2a} * int_0^a (e^{2s}-1)/s ds
    #    = e^{-2a} * (Ei(2a) - gamma - log(2a))
    # C3 = e^{-2a} * int_0^a (e^{-2s}-1)/s ds
    #    = -e^{-2a} * (gamma + log(2a) + E1(2a))
    for alpha in (0.05, 0.25, 1.0, 4.0, 8.0, 16.0):
        c = asy.constants(alpha)
        g = np.euler_gamma
        i2 = expi(2.0 * alpha) - g - math.log(2.0 * alpha)
        i3 = -(g + math.log(2.0 * alpha) + exp1(2.0 * alpha))
        assert c.C2 == pytest.approx(math.exp(-2 * alpha) * i2, rel=1e-14)
        assert c.C3 == pytest.approx(math.exp(-2 * alpha) * i3, rel=1e-14)
        assert c.C1 == pytest.approx(math.exp(-2 * alpha) * math.log(alpha))
    with pytest.raises(ValueError):
        asy.constants(-1.0)
    # past alpha ~ 355 the sum of the series overflows
    with pytest.raises(RuntimeError, match="did not converge"):
        asy.constants(400.0)


def test_blowup_time_estimates_consistent():
    alpha, eps = 1.0, 0.01
    assert asy.t_hat(alpha, eps) == pytest.approx(
        alpha - eps * math.exp(-alpha))
    c = asy.constants(alpha)
    assert asy.t_tilde(alpha, eps) == pytest.approx(
        asy.t_hat(alpha, eps) - (2 * c.C1 + c.C2 + c.C3) * eps ** 2)


def test_perturbation_v_closed_form():
    assert asy.perturbation_v(0.0, 0.0, 1.0, 0.1) == pytest.approx(0.9)
    assert asy.perturbation_v(math.pi, 0.5, 1.0, 0.1) == pytest.approx(
        0.5 + 0.1 * math.exp(-0.5))


def test_v_timescale2_continuity_and_domain():
    alpha, eps = 1.0, 0.01
    t_c = asy.t_tilde(alpha, eps)
    x = np.array([0.5, 1.0, 2.0])
    c = asy.constants(alpha)
    vals = asy.v_timescale2(x, t_c - 0.001, alpha, eps, t_c, c)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    with pytest.raises(ValueError):
        asy.v_timescale2(np.array([0.0]), t_c + 1e-6, alpha, eps, t_c, c)


def test_blowup_profile_limits():
    alpha, eps = 1.0, 0.001
    # at t = t_c the second-timescale form reduces to the global profile
    x = np.array([0.3, 1.0, 2.5])
    c = asy.constants(alpha)
    t_c = 1.0   # the profile formula does not reference t_c
    v2 = asy.v_timescale2(x, t_c, alpha, eps, t_c, c)
    prof = asy.blowup_profile_global(x, alpha, eps, c)
    assert np.max(np.abs(v2 - prof)) < 1e-14
    with pytest.raises(ValueError):
        asy.blowup_profile_global(np.array([0.0]), alpha, eps, c)
    # local profile leading order: eps e^{-a} x^2 / 2 for moderate log
    xs = 1e-3
    lead = eps * math.exp(-alpha) * xs ** 2
    got = asy.blowup_profile_local(xs, alpha, eps)
    assert got == pytest.approx(
        lead / (2.0 - 8.0 * eps * math.exp(-alpha) * math.log(xs ** 2)))
    with pytest.raises(ValueError):
        asy.blowup_profile_local(1.5, alpha, eps)


def test_coeff_decay_laws():
    assert asy.coeff_decay_global(2.0, 1.0, 0.01) == pytest.approx(
        4.0 * 1e-4 * math.exp(-2.0) / 8.0)
    assert asy.coeff_decay_local(math.e) == pytest.approx(
        1.0 / (16.0 * math.e ** 3))


def test_singularity_y_regimes():
    alpha, eps, t_c = 1.0, 0.001, 1.0
    # naive regime at t = 0: arccosh(alpha/eps)
    assert asy.singularity_y("naive", 0.0, alpha, eps, t_c) == pytest.approx(
        math.acosh(alpha / eps))
    # early regime matches its formula
    assert asy.singularity_y("early", 0.25, alpha, eps, t_c) == pytest.approx(
        math.log(2 * alpha / eps) + math.sqrt(2 * 0.25 * math.log(4.0)))
    # second scale at T -> 0^- goes to 0
    assert asy.singularity_y("second_scale", -1e-12, alpha, eps, t_c) < 1e-5
    # third scale reduces to sqrt(2 e^alpha (-T)) when the log correction
    # is switched off by eps -> 0
    t_small = -1e-4
    y3 = asy.singularity_y("third_scale", t_small, alpha, 1e-12, t_c)
    assert y3 == pytest.approx(math.sqrt(2 * math.e * 1e-4), rel=1e-6)
    # impingement law
    d = 1e-6
    assert asy.singularity_y("impingement", t_c - d, alpha, eps, t_c) \
        == pytest.approx(math.sqrt(8 * d * math.log(1 / d)))
    with pytest.raises(ValueError):
        asy.singularity_y("impingement", 0.5, alpha, eps, 0.4)  # t > t_c
    with pytest.raises(ValueError):
        asy.singularity_y("naive", 10.0, alpha, eps, t_c)       # arg < 1
    with pytest.raises(ValueError):
        asy.singularity_y("warp", 0.1, alpha, eps, t_c)


def test_singularity_y_refuses_epsilon_zero_where_it_scales_with_it():
    for regime in asy.SINGULARITY_REGIMES:
        if regime == "impingement":
            assert asy.singularity_y(regime, 0.9, 1.0, 0.0, 1.0) \
                == pytest.approx(math.sqrt(0.8 * math.log(10.0)))
        else:
            with pytest.raises(ValueError, match="requires epsilon > 0"):
                asy.singularity_y(regime, -0.1, 1.0, 0.0, 1.0)


def test_flatness_laws():
    alpha, eps = 4.0, 0.01
    assert asy.flatness_approx(0.0, alpha, eps) == pytest.approx(
        2 * eps / alpha ** 2)
    assert turning_time(alpha) == pytest.approx(2.0)
    assert turning_time(1.0) is None
    assert minimal_flatness(alpha, eps) == pytest.approx(
        0.5 * eps * math.exp(-2.0))
    assert minimal_flatness(1.0, eps) is None
    # the approximation is minimized at the turning time
    ts = np.linspace(1.0, 3.0, 201)
    f = asy.flatness_approx(ts, alpha, eps)
    assert abs(ts[np.argmin(f)] - 2.0) < 0.02
    with pytest.raises(ValueError):
        asy.flatness_approx(alpha, alpha, eps)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_flatness_approx_of_a_scalar_is_the_arrays_to_the_bit(alpha):
    # the flatness dataset takes the array of its times in one call; a
    # time on its own, a float or a numpy scalar, gives the same bits
    rng = np.random.default_rng(7)
    ts = np.concatenate([rng.uniform(0.0, alpha, 2000),
                         # rows where (alpha - t) ** 2 through pow() and
                         # the array's product differed in the last bit
                         [0.6620018397635933, 1.6499183393594237,
                          3.873808270714186]])
    ts = ts[ts < alpha]
    array = asy.flatness_approx(ts, alpha, 0.01)
    for one in ([asy.flatness_approx(float(t), alpha, 0.01) for t in ts],
                [asy.flatness_approx(t, alpha, 0.01) for t in ts]):
        assert np.array(one).tobytes() == array.tobytes()


def test_u_initial_coeff_against_fft():
    alpha, eps = 0.25, 0.1
    m = 4096
    x = -np.pi + 2 * np.pi * np.arange(m) / m
    u = 1.0 / (alpha - eps * np.cos(x))
    spec = np.fft.fft(u) / m
    for k in (0, 1, 3, 10):
        # real even function: c_k real after the node shift
        c_k = (spec[k] * np.exp(1j * np.pi * k)).real
        assert u_initial_coeff(k, alpha, eps) == pytest.approx(
            c_k, rel=1e-12)
    assert u_initial_coeff(0, 0.5, 0.0) == pytest.approx(2.0)
    assert u_initial_coeff(3, 0.5, 0.0) == 0.0

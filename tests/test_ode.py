import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rampforge import (ParameterError, SingularFieldError, integrate_fixed,
                       integrate_theta, lambda_from_theta, make_spec,
                       theta_closed_form, theta_closed_form_derivative,
                       theta_ode_rhs)
from conftest import LAMBDA_INF_REF

angles = st.floats(min_value=0.02, max_value=math.pi / 4 - 0.02)


def test_integrate_fixed_rejects_bad_step():
    for step in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            integrate_fixed(lambda _t, u: u, (1.0,), 0.0, 1.0, step)


@pytest.mark.parametrize("span", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0),
                                  (math.nan, 1.0), (math.inf, math.inf)])
def test_integrate_fixed_rejects_non_finite_span(span):
    with pytest.raises(ParameterError):
        integrate_fixed(lambda _t, u: u, (1.0,), span[0], span[1], 0.1)


@pytest.mark.parametrize("end", [math.inf, math.nan])
def test_integrate_theta_rejects_non_finite_span(fig_spec, end):
    with pytest.raises(ParameterError):
        integrate_theta(fig_spec, 0.1, (0.0, end))


def test_default_step_tracks_length_scale(fig_spec):
    theta0 = float(theta_closed_form(fig_spec, 0.0))
    trace = integrate_theta(fig_spec, theta0, (0.0, 2.0 / fig_spec.a))
    assert trace.s.shape == (2001,)
    assert np.allclose(np.diff(trace.s), 1e-3 / fig_spec.a, rtol=1e-9)


def test_closed_form_endpoints(fig_spec):
    d = fig_spec.delta
    assert theta_closed_form(fig_spec, 0.0) == pytest.approx(math.pi / 2 - d)
    assert theta_closed_form(fig_spec, 1e3 / fig_spec.a) == pytest.approx(-d, abs=1e-12)
    assert theta_closed_form(fig_spec, -1e3 / fig_spec.a) == pytest.approx(
        math.pi - d, abs=1e-12)


def test_closed_form_derivative_is_sech(fig_spec):
    s = np.linspace(-8.0, 8.0, 65) / fig_spec.a
    expect = -fig_spec.a / np.cosh(fig_spec.a * s)
    assert np.allclose(theta_closed_form_derivative(fig_spec, s), expect,
                       atol=1e-13)
    h = 1e-6
    num = (theta_closed_form(fig_spec, s + h)
           - theta_closed_form(fig_spec, s - h)) / (2.0 * h)
    assert np.allclose(num, theta_closed_form_derivative(fig_spec, s), atol=1e-8)


@given(delta=angles, t=st.floats(min_value=-30.0, max_value=30.0))
def test_closed_form_solves_the_ode(delta, t):
    spec = make_spec(delta)
    s = t / spec.a
    residual = (theta_closed_form_derivative(spec, s)
                - theta_ode_rhs(spec, theta_closed_form(spec, s)))
    assert abs(residual) < 1e-12


def test_lambda_from_theta_signs(fig_spec):
    assert lambda_from_theta(fig_spec, 0.0) == 0.0
    # straight-incline limit theta = -delta gives the resting value m g cos(delta)
    assert lambda_from_theta(fig_spec, -fig_spec.delta) == pytest.approx(
        LAMBDA_INF_REF, rel=1e-12)
    assert lambda_from_theta(fig_spec, 0.3) < 0.0  # upward tangent: unattainable


def test_integrate_fixed_exponential():
    t, y, dy, stop = integrate_fixed(lambda _t, u: u, (1.0,), 0.0, 1.0, 1e-3)
    y, dy = y[:, 0], dy[:, 0]
    assert t.shape == y.shape == dy.shape
    assert stop is None
    assert t[-1] == pytest.approx(1.0, abs=1e-15)
    assert y[-1] == pytest.approx(math.e, rel=1e-12)
    assert np.array_equal(dy, y)  # the slope at every sample is rhs(t, y) = y


def test_integrate_fixed_spacing_is_uniform():
    t, *_ = integrate_fixed(lambda _t, u: u, (1.0,), 0.0, 1.0, 0.3)  # 0.3 -> 4 steps
    assert len(t) == 5
    assert np.allclose(np.diff(t), 0.25)


@pytest.mark.parametrize("fail_at, kept", [
    (6, 2),    # second stage of step 1: sample 1 keeps its slope
    (9, 2),    # first stage of step 2: sample 2's slope is unknown, so it goes
    (17, 4),   # the slope at the end point: sample 4 goes
])
def test_integrate_fixed_stops_where_slopes_are_known(fail_at, kept):
    calls = [0]

    def rhs(_t, u):
        calls[0] += 1
        if calls[0] == fail_at:
            raise SingularFieldError("singular")
        return u

    t, y, dy, stop = integrate_fixed(rhs, (1.0,), 0.0, 1.0, 0.25)
    y, dy = y[:, 0], dy[:, 0]
    assert stop == "singular"
    assert t.shape == y.shape == dy.shape == (kept,)
    assert np.array_equal(dy, y)


def test_integrate_fixed_singular_start_raises():
    def rhs(_t, _u):
        raise SingularFieldError("singular")

    with pytest.raises(SingularFieldError):
        integrate_fixed(rhs, (1.0,), 0.0, 1.0, 0.25)


def test_integrate_theta_matches_closed_form(fig_spec):
    theta0 = float(theta_closed_form(fig_spec, 0.0))
    trace = integrate_theta(fig_spec, theta0, (0.0, 10.0 / fig_spec.a),
                            step=1e-3 / fig_spec.a)
    expect = theta_closed_form(fig_spec, trace.s)
    assert np.max(np.abs(trace.theta - expect)) < 1e-9


def test_integrate_theta_from_arbitrary_start(fig_spec):
    # any start decays to the equilibrium angle -delta
    trace = integrate_theta(fig_spec, 0.9, (0.0, 30.0 / fig_spec.a))
    assert trace.theta[-1] == pytest.approx(-fig_spec.delta, abs=1e-9)


def test_rk4_convergence_is_fourth_order(fig_spec):
    # coarse steps keep the error far above roundoff so the ratio is clean
    theta0 = float(theta_closed_form(fig_spec, 0.0))
    span = (0.0, 10.0 / fig_spec.a)
    errs = []
    for step in (0.2 / fig_spec.a, 0.1 / fig_spec.a):
        trace = integrate_theta(fig_spec, theta0, span, step=step)
        errs.append(abs(trace.theta[-1] - float(theta_closed_form(fig_spec, span[1]))))
    order = math.log2(errs[0] / errs[1])
    assert 3.8 <= order <= 4.2

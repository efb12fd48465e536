import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rampforge import (ParameterError, SingularFieldError, integrate_fixed,
                       integrate_theta, make_spec, spec_from_mu,
                       theta_closed_form, theta_closed_form_derivative,
                       theta_ode_rhs)
from rampforge.ode import hermite

angles = st.floats(min_value=0.02, max_value=math.pi / 4 - 0.02)


def test_integrate_fixed_rejects_bad_step():
    # 2e-19, 1e-300 and 1e-320: grids numpy cannot index, 2e-19 one whose
    # step count fits an int64 but whose bytes do not, 1e-320 an infinite one
    for step in (0.0, -1.0, math.inf, -math.inf, math.nan, 2e-19, 1e-300, 1e-320):
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


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_integrate_theta_rejects_a_non_finite_start(fig_spec, value):
    with pytest.raises(ParameterError):
        integrate_theta(fig_spec, value, (0.0, 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("index", [0, 2])
def test_integrate_fixed_rejects_a_non_finite_start(value, index):
    y0 = [1.0, 0.5, 0.25]
    y0[index] = value
    with pytest.raises(ParameterError):
        integrate_fixed(lambda _t, u: [-c for c in u], y0, 0.0, 1.0, 0.1)


def test_integrate_theta_keeps_the_domain_error_of_an_overflowing_step():
    # one step of 1e308 overflows the stage to inf, and sin(inf) fails by
    # itself: that is not a wrong-size rhs (the explicit step keeps it to
    # one step; the default one would need about 2e8)
    with pytest.raises(ValueError) as info:
        integrate_theta(spec_from_mu(0.5, v=0.01), 0.1, (0.0, 1e308), step=1e308)
    assert type(info.value) is ValueError
    assert str(info.value) == "math domain error"


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


def _rotation(_t, u):
    return (u[1], -u[0])


def test_integrate_fixed_storage_is_a_float64_table():
    t, y, dy, stop = integrate_fixed(_rotation, (1.0, 0.5), 0.0, 1.0, 0.1)
    assert stop is None and t.shape == (11,)
    for table in (y, dy):
        assert table.shape == (11, 2) and table.dtype == np.float64
        assert table.flags.c_contiguous
    assert np.array_equal(dy, np.stack([y[:, 1], -y[:, 0]], axis=-1))


def test_integrate_fixed_storage_ignores_the_rhs_container():
    expect = integrate_fixed(_rotation, (1.0, 0.5), 0.0, 1.0, 0.1)
    for wrap in (list, np.array):
        got = integrate_fixed(lambda t, u: wrap(_rotation(t, u)), (1.0, 0.5), 0.0, 1.0, 0.1)
        for a, b in zip(expect[:3], got[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[3] is None


def test_integrate_fixed_early_stop_keeps_aligned_rows():
    # a two-component state stopped after the slope at sample 3 is known
    full = integrate_fixed(_rotation, (1.0, 0.5), 0.0, 1.0, 0.1)
    calls = [0]

    def rhs(t, u):
        calls[0] += 1
        if calls[0] == 14:  # the second stage of step 3
            raise SingularFieldError("singular")
        return _rotation(t, u)

    t, y, dy, stop = integrate_fixed(rhs, (1.0, 0.5), 0.0, 1.0, 0.1)
    assert stop == "singular"
    assert y.shape == dy.shape == (4, 2) and t.shape == (4,)
    assert y.flags.c_contiguous and dy.flags.c_contiguous
    for a, b in zip(full[:3], (t, y, dy)):
        assert np.array_equal(a[:4], b)


@pytest.mark.parametrize("size, after", [(2, 0.0), (4, 0.0), (0, 0.0), (2, 0.45),
                                         (4, 0.45)])
def test_integrate_fixed_rejects_a_wrong_number_of_components(size, after):
    # a three-component state; from t >= after the rhs returns `size` values
    def rhs(t, u):
        k = [-c for c in u]
        return k if t < after else (k + [0.0, 0.0])[:size]

    with pytest.raises(ParameterError):
        integrate_fixed(rhs, (1.0, 0.5, 0.25), 0.0, 1.0, 0.1)


@pytest.mark.parametrize("size", [2, 4, 0, None])
@pytest.mark.parametrize("bad_call", [1, 2, 3, 4, 5, 6])
def test_integrate_fixed_rejects_a_wrong_size_at_any_stage(size, bad_call):
    # call 1 is the start slope; calls 2, 3 and 4 are the second, third and
    # fourth stage of step 1, call 5 the slope at sample 1 and call 6 the
    # second stage of step 2.  Size None returns a bare float
    calls = [0]

    def rhs(_t, u):
        calls[0] += 1
        k = [-c for c in u]
        if calls[0] != bad_call:
            return k
        return -u[0] if size is None else (k + [0.0, 0.0])[:size]

    with pytest.raises(ParameterError, match="rhs must return 3 values"):
        integrate_fixed(rhs, (1.0, 0.5, 0.25), 0.0, 1.0, 0.1)
    assert calls[0] == bad_call


@pytest.mark.parametrize("bad", [("1", "2"), (1.0, None), (1j, 0.0)])
@pytest.mark.parametrize("bad_call", [1, 3])
def test_integrate_fixed_rejects_values_that_are_not_real_numbers(bad, bad_call):
    # right in number, wrong in kind, at the start slope or at a later stage
    calls = [0]

    def rhs(_t, u):
        calls[0] += 1
        return bad if calls[0] == bad_call else [-c for c in u]

    with pytest.raises(ParameterError, match="rhs must return 2 values.*real number"):
        integrate_fixed(rhs, (1.0, 0.5), 0.0, 1.0, 0.1)
    assert calls[0] == bad_call


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("bad_call", [1, 3, 5, 11])
def test_integrate_fixed_keeps_the_rhs_own_value_error(dim, bad_call):
    # an rhs that fails by itself is not a wrong-size rhs
    calls = [0]

    def rhs(_t, u):
        calls[0] += 1
        if calls[0] == bad_call:
            math.sqrt(-1.0)
        return [-c for c in u]

    with pytest.raises(ValueError) as info:
        integrate_fixed(rhs, (1.0,) * dim, 0.0, 1.0, 0.1)
    assert type(info.value) is ValueError
    assert str(info.value) == "math domain error"


def test_integrate_fixed_rejects_an_empty_state():
    with pytest.raises(ParameterError):
        integrate_fixed(lambda _t, u: u, (), 0.0, 1.0, 0.1)


def test_integrate_fixed_does_not_broadcast_a_single_component():
    # numpy would spread one value over a whole row of the table
    with pytest.raises(ParameterError):
        integrate_fixed(lambda _t, u: (-u[0],), (1.0, 0.5, 0.25), 0.0, 1.0, 0.1)


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


def test_hermite_reproduces_a_cubic():
    def p(t):
        return np.stack([2.0 * t**3 - t**2 + 3.0 * t - 1.0, 4.0 * t - t**3], axis=-1)

    def dp(t):
        return np.stack([6.0 * t**2 - 2.0 * t + 3.0, 4.0 - 3.0 * t**2], axis=-1)

    grid = np.linspace(-1.0, 2.0, 7)
    t = np.concatenate([grid, np.random.default_rng(5).uniform(-1.0, 2.0, 50)])
    value, slope = hermite(grid, p(grid), dp(grid), t)
    assert np.allclose(value, p(t), rtol=0.0, atol=1e-12)
    assert np.allclose(slope, dp(t), rtol=0.0, atol=1e-12)
    # scalar rows: a 1D table of values and one of slopes
    value, slope = hermite(grid, p(grid)[:, 0], dp(grid)[:, 0], t)
    assert np.allclose(value, p(t)[:, 0], rtol=0.0, atol=1e-12)
    assert np.allclose(slope, dp(t)[:, 0], rtol=0.0, atol=1e-12)

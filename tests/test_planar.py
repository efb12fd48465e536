import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampforge import (Branch, ParameterError, alpha, alpha_rotated,
                       alpha_rotated_second_derivative, alpha_rotated_tangent,
                       alpha_second_derivative, alpha_tangent, apex_param,
                       asymptote_gap, default_span, lower_ramp, make_ramp,
                       make_spec, normal_force_2d, rotate_clockwise,
                       sample_ramp, scale_ramp, spec_from_mu,
                       tangent_angle_orbit_position, upper_ramp)
from conftest import GAP_REF, LAMBDA_INF_REF, S0_REF

angles = st.floats(min_value=0.02, max_value=math.pi / 4 - 0.02)
speeds = st.floats(min_value=0.2, max_value=50.0)


def _num_derivative(f, s, h=1e-6):
    return (f(s + h) - f(s - h)) / (2.0 * h)


def test_alpha_at_origin(fig_spec):
    p = alpha(fig_spec, 0.0)
    a = fig_spec.a
    assert p[0] == pytest.approx(math.log(2.0) / a, rel=1e-15)
    assert p[1] == pytest.approx(math.pi / (2.0 * a), rel=1e-15)


def test_alpha_shapes(fig_spec):
    assert alpha(fig_spec, 1.0).shape == (2,)
    assert alpha(fig_spec, np.zeros((3, 4))).shape == (3, 4, 2)
    assert alpha_tangent(fig_spec, np.arange(5.0)).shape == (5, 2)


def test_tangent_matches_position_derivative(fig_spec):
    s = np.linspace(-6.0, 6.0, 41)
    num = _num_derivative(lambda u: alpha(fig_spec, u), s)
    assert np.allclose(num, alpha_tangent(fig_spec, s), atol=1e-8)


def test_second_derivative_matches_tangent_derivative(fig_spec):
    s = np.linspace(-6.0, 6.0, 41)
    num = _num_derivative(lambda u: alpha_tangent(fig_spec, u), s)
    assert np.allclose(num, alpha_second_derivative(fig_spec, s), atol=1e-8)


@given(delta=angles, v=speeds, t=st.floats(min_value=-600.0, max_value=600.0))
def test_unit_speed_everywhere(delta, v, t):
    # t is the dimensionless a*s; extreme values must not overflow
    spec = make_spec(delta, v=v)
    d = alpha_tangent(spec, t / spec.a)
    assert abs(math.hypot(d[0], d[1]) - 1.0) < 1e-12


def test_far_field_is_finite(fig_spec):
    s = 700.0 / fig_spec.a
    for p in (alpha(fig_spec, s), alpha(fig_spec, -s),
              alpha_rotated(fig_spec, s)):
        assert np.all(np.isfinite(p))


def test_asymptote_gap_value(fig_spec):
    assert asymptote_gap(fig_spec) == pytest.approx(GAP_REF, rel=1e-14)
    big = 1e3 / fig_spec.a
    gap = alpha(fig_spec, big)[1] - alpha(fig_spec, -big)[1]
    assert gap == pytest.approx(math.pi / fig_spec.a, abs=1e-12)


def test_rotation_is_clockwise_isometry():
    p = np.array([1.0, 0.0])
    q = rotate_clockwise(p, 0.3)
    assert q[0] == pytest.approx(math.cos(0.3))
    assert q[1] == pytest.approx(-math.sin(0.3))
    pts = np.random.default_rng(0).normal(size=(50, 2))
    assert np.allclose(np.linalg.norm(rotate_clockwise(pts, 1.1), axis=-1),
                       np.linalg.norm(pts, axis=-1))


def test_apex_is_highest_point(fig_spec):
    s0 = apex_param(fig_spec)
    assert s0 == pytest.approx(S0_REF, rel=1e-14)
    assert alpha_rotated_tangent(fig_spec, s0)[1] == pytest.approx(0.0, abs=1e-14)
    y_apex = alpha_rotated(fig_spec, s0)[1]
    for ds in (-0.5, -0.1, 0.1, 0.5):
        assert alpha_rotated(fig_spec, s0 + ds)[1] < y_apex


@given(delta=angles)
def test_apex_tangent_horizontal(delta):
    spec = make_spec(delta)
    d = alpha_rotated_tangent(spec, apex_param(spec))
    assert abs(d[1]) < 1e-12
    assert d[0] == pytest.approx(1.0, abs=1e-12)


def test_normal_projection_identity(fig_spec):
    # alpha''_rot dotted with the quarter-turn of alpha'_rot equals a*sech(a s)
    s = np.linspace(-8.0, 8.0, 101) / fig_spec.a
    d = alpha_rotated_tangent(fig_spec, s)
    dd = alpha_rotated_second_derivative(fig_spec, s)
    lhs = dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]
    rhs = fig_spec.a / np.cosh(fig_spec.a * s)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_branches_meet_at_apex(fig_spec):
    lo, up = lower_ramp(fig_spec), upper_ramp(fig_spec)
    apex = alpha_rotated(fig_spec, apex_param(fig_spec))
    assert np.allclose(lo.position(0.0), apex)
    assert np.allclose(up.position(0.0), apex)
    # both leave the apex horizontally, in opposite directions
    assert np.allclose(lo.tangent(0.0), [-1.0, 0.0], atol=1e-12)
    assert np.allclose(up.tangent(0.0), [1.0, 0.0], atol=1e-12)
    # contact sides: block under the lower branch, on top of the upper one
    assert np.allclose(lo.normal(0.0), [0.0, -1.0], atol=1e-12)
    assert np.allclose(up.normal(0.0), [0.0, 1.0], atol=1e-12)


def test_branch_normals_are_unit_and_orthogonal(fig_spec):
    s = np.linspace(0.0, 10.0, 200)
    for ramp in (lower_ramp(fig_spec), upper_ramp(fig_spec)):
        t = ramp.tangent(s)
        n = ramp.normal(s)
        assert np.allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)
        assert np.max(np.abs(np.einsum("ij,ij->i", t, n))) < 1e-12


def test_upper_branch_flattens_to_incline(fig_spec):
    up = upper_ramp(fig_spec)
    t = up.tangent(40.0 / fig_spec.a)
    assert t[0] == pytest.approx(math.cos(fig_spec.delta), abs=1e-12)
    assert t[1] == pytest.approx(-math.sin(fig_spec.delta), abs=1e-12)


def test_make_ramp_accepts_names(fig_spec):
    assert make_ramp(fig_spec, "lower").branch is Branch.LOWER
    assert make_ramp(fig_spec, Branch.UPPER).branch is Branch.UPPER
    with pytest.raises(ValueError):
        make_ramp(fig_spec, "sideways")


def test_normal_force_zero_at_apex_positive_after(fig_spec):
    for branch in Branch:
        lam = normal_force_2d(fig_spec, branch, 0.0)
        assert abs(lam) < 1e-10
        t = np.linspace(1e-4, 20.0, 500)
        assert np.all(normal_force_2d(fig_spec, branch, t) > 0.0)


def test_normal_force_inclined_plane_limit(fig_spec):
    t_far = 200.0 / (fig_spec.a * fig_spec.v)
    for branch in Branch:
        lam = normal_force_2d(fig_spec, branch, t_far)
        assert lam == pytest.approx(LAMBDA_INF_REF, rel=1e-12)


def test_sample_ramp_columns(fig_spec):
    ramp = lower_ramp(fig_spec)
    s = np.linspace(0.0, 3.0, 7)
    data = sample_ramp(fig_spec, ramp, s)
    assert sorted(data) == ["lambda", "nx", "ny", "s", "tx", "ty", "x", "y"]
    assert all(col.shape == (7,) for col in data.values())
    with pytest.raises(ParameterError):
        sample_ramp(fig_spec, ramp, [-1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("geometry", ["lower", "upper", "dilated"])
def test_sample_ramp_rejects_non_finite_arc_length(fig_spec, geometry, bad):
    # NaN passed both domain comparisons, and inf, the open end of
    # (0, inf), passed as inside: each wrote rows of NaN
    ramp = (scale_ramp(upper_ramp(fig_spec), 6.0) if geometry == "dilated"
            else make_ramp(fig_spec, geometry))
    with pytest.raises(ParameterError, match="must be finite and inside the ramp domain"):
        sample_ramp(fig_spec, ramp, [1.0, bad])


def test_default_span_scales_inversely_with_a():
    near = spec_from_mu(0.9, v=1.0)
    far = spec_from_mu(0.9, v=10.0)  # larger v -> smaller a -> longer span
    assert default_span(far) > default_span(near)
    assert default_span(near) == pytest.approx(8.0 / near.a)


def test_orbit_from_apex_angle_matches_upper_branch(fig_spec):
    # tangent angle 0 is the apex; the forward orbit is the upper branch
    s = np.linspace(0.0, 6.0, 60)
    rel = tangent_angle_orbit_position(fig_spec, 0.0, s)
    up = upper_ramp(fig_spec)
    expect = up.position(s) - up.position(0.0)
    assert np.max(np.linalg.norm(rel - expect, axis=-1)) < 1e-12


def test_orbit_at_equilibrium_angle_is_straight(fig_spec):
    s = np.linspace(0.0, 5.0, 11)
    rel = tangent_angle_orbit_position(fig_spec, -fig_spec.delta, s)
    line = np.stack([s * math.cos(fig_spec.delta),
                     -s * math.sin(fig_spec.delta)], axis=-1)
    assert np.allclose(rel, line, atol=1e-12)


@settings(max_examples=40)
@given(theta0=st.floats(min_value=-2.5, max_value=1.0))
def test_orbit_invariant(theta0):
    # along any orbit tan((theta+delta)/2) decays like exp(-a s)
    spec = spec_from_mu(0.5, v=5.0)
    c = math.tan(0.5 * (theta0 + spec.delta))
    if abs(c) < 1e-6:
        return
    s = np.linspace(0.0, 3.0, 301)
    pos = tangent_angle_orbit_position(spec, theta0, s)
    d = np.gradient(pos, s, axis=0)
    speed = np.linalg.norm(d, axis=-1)
    assert np.max(np.abs(speed[2:-2] - 1.0)) < 1e-4  # unit-speed orbit
    theta = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    theta += 2.0 * math.pi * round((theta0 - theta[0]) / (2.0 * math.pi))
    ratio = np.tan(0.5 * (theta + spec.delta)) / c
    assert np.allclose(ratio[2:-2], np.exp(-spec.a * s[2:-2]), atol=1e-3)

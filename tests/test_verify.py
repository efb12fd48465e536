import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rampforge import (Branch, ContractViolationError, Feasibility,
                       ParameterError, Ramp2D, SpaceCurve3D, TangentField, Verdict,
                       build_surface, builtin_field, integrate_ramp3d,
                       lower_ramp, make_ramp, make_spec, normal_sign_diagnostic,
                       planar_reduction_check, scale_ramp, spec_from_mu,
                       upper_ramp, verify_2d, verify_3d, verify_scaling)
from rampforge.verify import _planar_balance


def unit_circle_ramp(inward: bool) -> Ramp2D:
    """Block touching the unit circle from inside (inward normal) or outside."""
    sign = -1.0 if inward else 1.0

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(np.cos(t), np.sin(t)), axis=-1)

    def tangent(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(-np.sin(t), np.cos(t)), axis=-1)

    def second(t):
        return -position(t)

    return Ramp2D(position=position, tangent=tangent, second_derivative=second,
                  normal=lambda t: sign * position(t), domain=(-math.tau, math.tau),
                  branch=Branch.LOWER)


def parabola_ramp() -> Ramp2D:
    """The graph (t, t^2) with the downward-pointing normal."""

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(t, t * t), axis=-1)

    def tangent(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(np.ones_like(t), 2.0 * t), axis=-1)

    def second(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(np.zeros_like(t), 2.0 + 0.0 * t),
                        axis=-1)

    def normal(t):
        t = np.asarray(t, dtype=float)
        scale = np.sqrt(4.0 * t * t + 1.0)
        return np.stack(np.broadcast_arrays(2.0 * t / scale, -1.0 / scale),
                        axis=-1)

    return Ramp2D(position=position, tangent=tangent, second_derivative=second,
                  normal=normal, domain=(-math.inf, math.inf), branch=Branch.LOWER)


def test_verify_2d_valid_on_both_branches(fig_spec):
    for branch in Branch:
        report = verify_2d(fig_spec, make_ramp(fig_spec, branch))
        assert report.verdict is Verdict.VALID
        assert report.max_residual < 1e-10
        assert report.lambda_min > -1e-12
        assert report.meta["branch"] == branch.value
        assert report.t.shape == report.residual_norm.shape


def test_verify_2d_rejects_bad_spans(fig_spec):
    ramp = lower_ramp(fig_spec)
    with pytest.raises(ParameterError):
        verify_2d(fig_spec, ramp, t_span=(1.0, 0.5))
    with pytest.raises(ParameterError):
        verify_2d(fig_spec, ramp, n_samples=1)


def test_verify_2d_rejects_non_arclength_curve(fig_spec):
    ramp = lower_ramp(fig_spec)
    stretched = Ramp2D(position=ramp.position, tangent=lambda s: 1.1 * ramp.tangent(s),
                       second_derivative=ramp.second_derivative, normal=ramp.normal,
                       domain=ramp.domain, branch=ramp.branch)
    with pytest.raises(ContractViolationError):
        verify_2d(fig_spec, stretched)


def test_verify_2d_rejects_non_finite_span(fig_spec):
    # an infinite end used to fill the sample times with NaN
    ramp = lower_ramp(fig_spec)
    for span in ((0.0, math.inf), (math.inf, math.inf), (0.0, math.nan)):
        with pytest.raises(ParameterError):
            verify_2d(fig_spec, ramp, t_span=span)


def test_nan_is_never_valid(fig_spec):
    # NaN compares false with every bound, so each check must be phrased to
    # fail on it rather than pass
    ramp = lower_ramp(fig_spec)
    nan_tangent = replace(ramp, tangent=lambda s: math.nan * ramp.tangent(s))
    with pytest.raises(ContractViolationError):
        verify_2d(fig_spec, nan_tangent)

    nan_inertia = replace(
        ramp, second_derivative=lambda s: math.nan * ramp.second_derivative(s))
    report = verify_2d(fig_spec, nan_inertia)
    assert math.isnan(report.max_residual)
    assert report.verdict is Verdict.RESIDUAL_EXCEEDED

    space = integrate_ramp3d(fig_spec, builtin_field("upslope"), [0.8, 0.0, -0.6],
                             1.0, step=0.01)
    gamma = space.gamma.copy()
    gamma[5] = math.nan
    report = verify_3d(fig_spec, replace(space, gamma=gamma))
    assert math.isnan(report.lambda_min) and math.isnan(report.max_residual)
    assert report.verdict is Verdict.LAMBDA_NEGATIVE


def test_verify_2d_wrong_mu_is_residual_exceeded(fig_spec):
    ramp = lower_ramp(fig_spec)
    wrong = spec_from_mu(fig_spec.mu * 1.1, g=fig_spec.g, v=fig_spec.v,
                         m=fig_spec.m)
    report = verify_2d(wrong, ramp)
    assert report.verdict is Verdict.RESIDUAL_EXCEEDED
    assert report.max_residual > 1e-3


def test_verify_3d_valid_for_builtin_fields(fig_spec):
    for kind in ("upslope", "horizontal"):
        curve = integrate_ramp3d(fig_spec, builtin_field(kind),
                                 [0.8, 0.0, -0.6], 2.0 / fig_spec.a)
        report = verify_3d(fig_spec, curve)
        assert report.verdict is Verdict.VALID
        assert report.max_residual < 1e-10
        assert report.meta["field"] == kind
        assert report.meta["max_gamma3"] <= 1e-12


def test_verify_3d_samples_the_rows_np_unique_picks(fig_spec):
    # verify_3d picks its rows without np.unique (which imports numpy.ma);
    # they must be exactly the rows np.unique keeps, for every short curve
    # and sample count and for the default count on longer curves
    full = integrate_ramp3d(fig_spec, builtin_field("horizontal"), [0.8, 0.0, -0.6],
                            2.0 / fig_spec.a, step=0.001 / fig_spec.a)
    cases = [(length, n) for length in range(2, 61) for n in range(2, length + 4)]
    for length, n_samples in cases + [(399, 400), (400, 400), (401, 400), (2001, 400)]:
        curve = replace(full, s=full.s[:length], gamma=full.gamma[:length],
                        dgamma=full.dgamma[:length], alpha=full.alpha[:length])
        count = min(n_samples, length)
        rows = np.unique(np.round(np.linspace(0, length - 1, count)).astype(int))
        t = verify_3d(fig_spec, curve, n_samples=n_samples).t
        np.testing.assert_array_equal(t, curve.s[rows] / fig_spec.v)


def test_verify_3d_scaled_curve_fails_at_original_spec(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 2.0 / fig_spec.a)
    report = verify_3d(fig_spec, scale_ramp(curve, 1.01))
    assert report.verdict is Verdict.RESIDUAL_EXCEEDED


def test_verify_3d_flags_negative_lambda(fig_spec):
    # fabricated record whose direction samples point above the horizon
    tf = builtin_field("upslope")
    s = np.linspace(0.0, 1.0, 9)
    gamma = np.broadcast_to(np.array([0.8, 0.0, 0.6]), (9, 3)).copy()
    curve = SpaceCurve3D(s=s, gamma=gamma, dgamma=np.zeros((9, 3)),
                         alpha=np.zeros((9, 3)), field=tf,
                         norm_drift_total=0.0, norm_drift_max=0.0)
    report = verify_3d(fig_spec, curve)
    assert report.verdict is Verdict.LAMBDA_NEGATIVE
    assert report.lambda_min < 0.0


def test_planar_reduction_applicability(fig_spec):
    up = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                          [1.0, 0.0, 0.0], 1.0 / fig_spec.a)
    result = planar_reduction_check(fig_spec, up)
    assert result["applicable"]
    assert result["max_deviation"] < 1e-10
    hor = integrate_ramp3d(fig_spec, builtin_field("horizontal"),
                           [1.0, 0.0, 0.0], 1.0 / fig_spec.a)
    assert not planar_reduction_check(fig_spec, hor)["applicable"]


def test_planar_reduction_ignores_a_field_named_upslope(fig_spec):
    # a horizontal field under the upslope name has no planar closed form
    field = replace(builtin_field("horizontal"), name="upslope")
    curve = integrate_ramp3d(fig_spec, field, [1.0, 0.0, 0.0], 2.0 / fig_spec.a)
    assert planar_reduction_check(fig_spec, curve) == {
        "applicable": False, "reason": "field 'upslope' has no planar closed form"}


def test_planar_reduction_of_a_field_regular_at_the_pole(fig_spec):
    # a start at the south pole, where e3T vanishes, with a field that is
    # tangent and finite there: not the upslope field, and no 0/0 warning
    field = TangentField("upslope", eval=lambda _y: (1.0, 0.0, 0.0))
    curve = integrate_ramp3d(fig_spec, field, [0.0, 0.0, -1.0], 0.1 / fig_spec.a)
    assert not planar_reduction_check(fig_spec, curve)["applicable"]


@pytest.mark.parametrize("wrap", [False, True])
def test_planar_reduction_applies_to_an_upslope_field_of_any_name(fig_spec, wrap):
    # renamed, and with its eval wrapped as a counting tracer wraps it
    up = builtin_field("upslope")
    field = replace(up, name="steepest ascent",
                    eval=(lambda y: up.eval(y)) if wrap else up.eval)
    curve = integrate_ramp3d(fig_spec, field, [0.6, 0.0, -0.8], 2.0 / fig_spec.a)
    result = planar_reduction_check(fig_spec, curve)
    assert result["applicable"]
    assert result["max_deviation"] < 1e-9


def test_planar_reduction_matches_tilted_start(fig_spec):
    y0 = np.array([0.6, 0.0, -0.8])
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"), y0,
                             2.0 / fig_spec.a)
    result = planar_reduction_check(fig_spec, curve)
    assert result["applicable"]
    assert result["theta0"] == pytest.approx(math.atan2(-0.8, 0.6))
    assert result["max_deviation"] < 1e-9


def test_parabola_motion_is_infeasible(fig_spec):
    # constant-rate sweep of the parabola graph with the normal pointing down
    ramp = parabola_ramp()
    report = normal_sign_diagnostic(ramp, np.array([0.0, -fig_spec.m * fig_spec.g]),
                                    fig_spec.m, 1.0, t_span=(0.0, 4.0), start=-2.0)
    assert report.verdict is Feasibility.INFEASIBLE
    assert np.all(report.lambda_required < 0.0)


def test_normal_sign_diagnostic_needs_two_samples(fig_spec):
    ramp = lower_ramp(fig_spec)
    for n_samples in (0, 1):
        with pytest.raises(ParameterError, match="at least 2 samples"):
            normal_sign_diagnostic(ramp, np.array([0.0, -9.81]), 1.0, 1.0, (0.0, 1.0),
                                   n_samples=n_samples)


@pytest.mark.parametrize("t_span", [(0.0, math.inf), (0.0, math.nan), (1.0, 1.0),
                                    (1.0, 0.5)])
def test_normal_sign_diagnostic_rejects_a_bad_span(fig_spec, t_span):
    with pytest.raises(ParameterError):
        normal_sign_diagnostic(lower_ramp(fig_spec), np.array([0.0, -9.81]), 1.0,
                               1.0, t_span)


def test_static_block_in_circular_bowl():
    inward = unit_circle_ramp(inward=True)
    lowest = -math.pi / 2.0  # lowest point of the circle
    gravity = np.array([0.0, -9.81])
    report = normal_sign_diagnostic(inward, gravity, 1.0, 0.0, t_span=(0.0, 1.0),
                                    start=lowest)
    assert report.verdict is Feasibility.FEASIBLE
    assert report.lambda_min == pytest.approx(9.81)
    # same geometry touched from the other side cannot hold the block
    outward = unit_circle_ramp(inward=False)
    report = normal_sign_diagnostic(outward, gravity, 1.0, 0.0, t_span=(0.0, 1.0),
                                    start=lowest)
    assert report.verdict is Feasibility.INFEASIBLE


def test_circular_motion_needs_speed_dependent_normal():
    inward = unit_circle_ramp(inward=True)
    gravity = np.array([0.0, -9.81])
    # parked on the ceiling of the drum the wall cannot hold the block
    report = normal_sign_diagnostic(inward, gravity, 1.0, 0.0, t_span=(0.0, 1.0),
                                    start=math.pi / 2.0)
    assert report.verdict is Feasibility.INFEASIBLE
    # spun fast enough the wall presses on it all the way around
    # v^2/r = 36 > g
    report = normal_sign_diagnostic(inward, gravity, 1.0, 6.0, t_span=(0.0, 2.0))
    assert report.verdict is Feasibility.FEASIBLE
    assert report.lambda_min >= 36.0 - 9.81 - 1e-9


def test_normal_sign_diagnostic_reads_the_tangent_once():
    ramp = parabola_ramp()
    calls = [0]

    def tangent(t):
        calls[0] += 1
        return ramp.tangent(t)

    counted = replace(ramp, tangent=tangent)
    normal_sign_diagnostic(counted, np.array([0.0, -9.81]), 1.0, 2.0, t_span=(0.0, 1.0),
                           start=-1.5)
    assert calls[0] == 1


def straight_ramp(theta: float) -> Ramp2D:
    """The paper's straight ramp: a line at ``theta`` below the horizontal,
    parametrized by arc length, with the upward normal."""
    direction = np.array([math.cos(theta), -math.sin(theta)])

    def constant(row):
        return lambda t: np.broadcast_to(row, np.shape(t) + (2,))

    return Ramp2D(
        position=lambda t: np.multiply.outer(np.asarray(t, dtype=float), direction),
        tangent=constant(direction), second_derivative=constant(np.zeros(2)),
        normal=constant(np.array([math.sin(theta), math.cos(theta)])),
        domain=(-math.inf, math.inf), branch=Branch.LOWER)


# down the line, and back up it (the ids ending in -backwards)
@pytest.mark.parametrize("theta, mu, rate", [
    pytest.param(theta, mu, rate, id=f"{theta}-{mu}" + ("" if rate > 0.0 else "-backwards"))
    for rate in (3.0, -3.0)
    for theta, mu in [(0.3, 0.5), (0.1, 0.8), (1.0, 0.2), (math.atan(0.5), 0.5)]])
def test_normal_sign_diagnostic_on_the_straight_ramp(theta, mu, rate):
    # at constant speed along a line the ramp carries the normal part of the
    # weight, and friction mu * lambda, against the motion, is out of balance
    # with the weight's slope component by m g |mu cos(theta) - sign(rate) sin(theta)|:
    # zero going down at tan(theta) = mu, 2 m g sin(theta) going back up
    m, g = 2.0, 9.81
    report = normal_sign_diagnostic(straight_ramp(theta), np.array([0.0, -m * g]), m,
                                    rate, t_span=(0.0, 2.0), mu=mu)
    assert report.verdict is Feasibility.FEASIBLE
    assert report.lambda_min == pytest.approx(m * g * math.cos(theta), rel=1e-15, abs=0.0)
    assert np.allclose(report.lambda_required, m * g * math.cos(theta), rtol=1e-15, atol=0.0)
    assert report.friction_consistency_max == pytest.approx(
        m * g * abs(mu * math.cos(theta) - math.copysign(math.sin(theta), rate)),
        rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("eps, verdict", [(1e-10, Feasibility.FEASIBLE),
                                          (1e-8, Feasibility.INFEASIBLE)])
def test_feasibility_tolerance_at_its_edge(eps, verdict):
    # a block at rest on a level floor, its normal up, under a net upward
    # force eps: the floor would have to pull with eps, 10x inside or past
    # TOL_FEASIBILITY
    report = normal_sign_diagnostic(straight_ramp(0.0), np.array([0.0, eps]), 1.0,
                                    0.0, t_span=(0.0, 1.0), start=0.0)
    assert report.lambda_min == -eps
    assert report.verdict is verdict


@pytest.mark.parametrize("scale, raises", [(1.0 + 1e-9, False), (1.0 + 1e-7, True)])
def test_unit_tangent_tolerance_at_its_edge(fig_spec, scale, raises):
    # a tangent off unit length by 10x less or 10x more than _UNIT_TANGENT_TOL
    ramp = upper_ramp(fig_spec)
    scaled = replace(ramp, tangent=lambda s: scale * ramp.tangent(s))
    if raises:
        with pytest.raises(ContractViolationError, match="not unit length"):
            verify_2d(fig_spec, scaled)
    else:
        verify_2d(fig_spec, scaled)


@pytest.mark.parametrize("offset, applicable", [(1e-13, True), (1e-11, False)])
def test_upslope_tolerance_at_its_edge(fig_spec, offset, applicable):
    # a field off the upslope field by 10x less or 10x more than TOL_UPSLOPE
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"), [1.0, 0.0, 0.0],
                             2.0 / fig_spec.a)
    upslope = builtin_field("upslope")
    near = TangentField("near upslope", lambda y: tuple(c + offset for c in upslope(y)))
    assert planar_reduction_check(fig_spec, replace(curve, field=near))["applicable"] is applicable


@pytest.mark.parametrize("branch, slope, eps, verdict", [
    ("upper", 3.95, 2.5e-10, Verdict.VALID), ("upper", 3.95, 2.5e-8, Verdict.RESIDUAL_EXCEEDED),
    ("lower", 23.66, 4e-11, Verdict.VALID), ("lower", 23.66, 4e-9, Verdict.RESIDUAL_EXCEEDED)])
def test_residual_2d_tolerance_at_its_edge(fig_spec, branch, slope, eps, verdict):
    # the exact branch verified at mu (1 + eps) leaves a residual of slope * eps
    # N, 10x inside or past TOL_RESIDUAL_2D
    report = verify_2d(spec_from_mu(fig_spec.mu * (1.0 + eps), v=fig_spec.v),
                       make_ramp(fig_spec, branch))
    assert report.max_residual == pytest.approx(slope * eps, rel=1e-3)
    assert report.verdict is verdict


@pytest.mark.parametrize("eps, verdict", [(5e-9, Verdict.VALID),
                                          (5e-7, Verdict.RESIDUAL_EXCEEDED)])
def test_residual_3d_tolerance_at_its_edge(fig_spec, eps, verdict):
    # a horizontal-field curve verified at mu (1 + eps) leaves a residual of
    # 19.51 eps N, 10x inside or past TOL_RESIDUAL_3D
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"), [0.8, 0.0, -0.6],
                             5.0 / fig_spec.a)
    report = verify_3d(spec_from_mu(fig_spec.mu * (1.0 + eps), v=fig_spec.v), curve)
    assert report.max_residual == pytest.approx(19.51 * eps, rel=1e-3)
    assert report.verdict is verdict


@pytest.mark.parametrize("pull, verdict", [(1e-11, Verdict.VALID),
                                           (1e-9, Verdict.LAMBDA_NEGATIVE)])
def test_lambda_tolerance_at_its_edge(fig_spec, pull, verdict):
    # an upslope curve from the equator starts at lambda = 0; lifting its first
    # direction by y3 makes the ramp pull with m g y3 / mu there, 10x inside
    # or past TOL_LAMBDA, while every later row pushes
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"), [1.0, 0.0, 0.0],
                             5.0 / fig_spec.a)
    gamma = curve.gamma.copy()
    gamma[0, 2] = pull * fig_spec.mu / (fig_spec.m * fig_spec.g)
    report = verify_3d(fig_spec, replace(curve, gamma=gamma))
    assert report.lambda_min == pytest.approx(-pull, rel=1e-12)
    assert report.verdict is verdict


def test_residual_components_match_an_independent_projection(fig_spec):
    # the upper ramp judged with mu off by 10%: its residual's tangential and
    # normal maxima, and each maximum and mean, differ by more than 1e-12
    judged = spec_from_mu(1.1 * fig_spec.mu, v=fig_spec.v)
    ramp = make_ramp(fig_spec, "upper")
    report = verify_2d(judged, ramp)
    residual = _planar_balance(judged, ramp, report.t)[-1][-1]
    tangent = ramp.tangent(judged.v * report.t)
    # along the unit tangent, and across it as the 2D cross product with it
    along = np.abs(residual[:, 0] * tangent[:, 0] + residual[:, 1] * tangent[:, 1])
    across = np.abs(residual[:, 0] * tangent[:, 1] - residual[:, 1] * tangent[:, 0])
    assert report.max_tangential_residual == pytest.approx(along.max(), rel=1e-12)
    assert report.max_normal_residual == pytest.approx(across.max(), rel=1e-12)
    assert abs(along.max() - across.max()) > 1e-3
    assert across.max() - across.mean() > 0.1 and along.max() - along.mean() > 0.05


def test_planar_reduction_reports_the_largest_deviation(fig_spec):
    # an upslope curve matches its planar closed form to ~3e-14; moving alpha
    # by 1e-3 at one interior row makes that row's deviation the largest
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"), [1.0, 0.0, 0.0], 2.28)
    alpha = curve.alpha.copy()
    alpha[alpha.shape[0] // 2, 0] += 1e-3
    check = planar_reduction_check(fig_spec, replace(curve, alpha=alpha))
    assert check["max_deviation"] == pytest.approx(1e-3, abs=1e-12)


def test_max_gamma3_is_the_highest_direction(fig_spec):
    # the horizontal field from (0.8, 0, -0.6) only descends: its highest
    # direction is the first, and its lowest is near -0.99
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"), [0.8, 0.0, -0.6],
                             5.0 / fig_spec.a)
    assert verify_3d(fig_spec, curve).meta["max_gamma3"] == -0.6
    assert curve.gamma[-1, 2] < -0.99


def test_verify_scaling_2d(fig_spec):
    result = verify_scaling(fig_spec, upper_ramp(fig_spec), 4.0)
    assert result.both_valid
    assert result.kappa == 4.0
    assert result.speed_spec.v == pytest.approx(2.0 * fig_spec.v)
    assert result.gravity_spec.g == pytest.approx(fig_spec.g / 4.0)
    assert result.speed_report.meta["dimension"] == "2d"


def test_verify_scaling_3d(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 2.0 / fig_spec.a)
    result = verify_scaling(fig_spec, curve, 0.25)
    assert result.both_valid

    surface = build_surface(curve, resolution=(10, 4))
    assert verify_scaling(fig_spec, surface, 4.0, n_samples=100).both_valid


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.01, 0.99), kappa=st.floats(0.25, 6.0))
@example(mu=0.5, kappa=6.0)  # tan(atan(0.5)) is 0.49999999999999994
def test_verify_scaling_keeps_the_callers_mu(mu, kappa):
    spec = spec_from_mu(mu, v=5.0, m=2.0)
    result = verify_scaling(spec, upper_ramp(spec), kappa, n_samples=8)
    for reading in (result.speed_spec, result.gravity_spec):
        assert (reading.mu, reading.delta, reading.m) == (spec.mu, spec.delta, spec.m)
        assert reading.a == spec.a / kappa  # the dilated geometry's length scale


@pytest.mark.parametrize("build", [spec_from_mu,
                                   lambda mu, v: make_spec(math.atan(mu), v=v)],
                         ids=["spec_from_mu", "make_spec"])
def test_verify_scaling_by_one_reads_the_callers_spec(build):
    # make_spec's a, through sin(delta), missed spec_from_mu's by an ulp
    # for about 3 in 10 such mu
    for mu in np.random.default_rng(33).uniform(0.01, 0.99, 2000).tolist():
        spec = build(mu, v=5.0)
        result = verify_scaling(spec, upper_ramp(spec), 1.0, n_samples=2)
        assert result.speed_spec == spec and result.gravity_spec == spec, mu


def test_verify_scaling_rejects_bad_kappa(fig_spec):
    with pytest.raises(ParameterError):
        verify_scaling(fig_spec, upper_ramp(fig_spec), 0.0)
    with pytest.raises(ParameterError):
        verify_scaling(fig_spec, fig_spec, 2.0)

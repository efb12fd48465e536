import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampforge import (ContractViolationError, ParameterError,
                       SingularFieldError, TangentField, Verdict,
                       build_surface, builtin_field, cumulative_simpson,
                       e3_tangential, field_x, hemisphere_point,
                       integrate_ramp3d, lambda_3d, lower_ramp, scale_ramp,
                       simulate, spec_from_mu, verify_3d)
from rampforge.ode import horizontal_closed_form

# directions strictly inside the south hemisphere, away from the pole
interior = st.tuples(
    st.floats(min_value=0.15, max_value=math.pi / 2 - 0.15),  # polar offset
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
).map(lambda pa: np.array([math.sin(pa[0]) * math.cos(pa[1]),
                           math.sin(pa[0]) * math.sin(pa[1]),
                           -math.cos(pa[0])]))


def test_hemisphere_point_validation():
    y = hemisphere_point([1.0, 0.0, 0.0])
    assert y.shape == (3,)
    for bad in ([1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0],
                [math.nan, 0.0, 0.0]):
        with pytest.raises(ParameterError) as err:
            hemisphere_point(bad)
        assert err.value.code == "hemisphere"


def test_e3_tangential_removes_radial_part():
    y = np.array([0.6, 0.0, -0.8])
    w = e3_tangential(y)
    assert abs(float(w @ y)) < 1e-15
    assert np.allclose(w + (y @ np.array([0.0, 0.0, 1.0])) * y, [0.0, 0.0, 1.0])


@settings(max_examples=60)
@given(y=interior, weight=st.floats(min_value=0.0, max_value=1.0))
def test_builtin_fields_are_unit_tangent(y, weight):
    for tf in (builtin_field("upslope"), builtin_field("horizontal"),
               builtin_field("blend", weight)):
        n = tf(y)
        assert abs(float(np.linalg.norm(n)) - 1.0) < 1e-12
        assert abs(float(n @ y)) < 1e-12


def test_builtin_field_argument_validation():
    with pytest.raises(ParameterError):
        builtin_field("upslope", weight=0.5)
    with pytest.raises(ParameterError):
        builtin_field("blend")
    with pytest.raises(ParameterError):
        builtin_field("blend", 1.5)
    with pytest.raises(ParameterError):
        builtin_field("sideways")


def test_fields_singular_only_at_pole():
    pole = np.array([0.0, 0.0, -1.0])
    for kind in ("upslope", "horizontal"):
        with pytest.raises(SingularFieldError):
            builtin_field(kind)(pole)
    near = np.array([1e-3, 0.0, -math.sqrt(1.0 - 1e-6)])
    for kind in ("upslope", "horizontal"):
        builtin_field(kind)(near)  # close but regular


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
def test_blend_names_itself_when_singular(weight):
    pole = [0.0, 0.0, -1.0]
    blend = builtin_field("blend", weight)
    with pytest.raises(SingularFieldError) as info:
        blend(pole)
    assert str(info.value) == f"field {blend.name!r} is singular at {pole}"
    assert info.value.point is pole


def _directions(rng):
    # axis-aligned starts (signed zeros in the products) plus random ones
    fixed = [[1.0, 0.0, 0.0], [0.6, 0.0, -0.8], [0.0, -0.6, -0.8],
             [0.8, 0.0, -0.6], [-0.48, 0.64, -0.6]]
    rand = rng.normal(size=(20, 3))
    rand[:, 2] = -np.abs(rand[:, 2])
    rand /= np.linalg.norm(rand, axis=-1, keepdims=True)
    return [np.array(y) for y in fixed] + list(rand)


def test_field_x_formula(fig_spec, rng):
    # field_x works in Python floats; it must reproduce the array
    # expression of the flow bit for bit
    specs = (fig_spec, spec_from_mu(0.3, g=3.7, v=2.0, m=2.5))
    fields = (builtin_field("upslope"), builtin_field("horizontal"),
              builtin_field("blend", 0.37))
    for spec in specs:
        for tf in fields:
            for y in _directions(rng):
                expect = -(spec.g / (spec.v * spec.v)) * (
                    e3_tangential(y) + (y[2] / spec.mu) * np.asarray(tf(y)))
                assert np.array_equal(field_x(spec, tf, y), expect)


def test_builtin_fields_normalize_their_defining_vector(rng):
    # each field is w / |w| of its defining vector, with |w| the sum of
    # squares in this order, rounded as elementwise IEEE operations
    def unit(w):
        return w / np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])

    blend = builtin_field("blend", 0.37)
    for y in _directions(rng):
        up = unit(e3_tangential(y))
        level = unit(np.array([y[1], -y[0], 0.0]))  # y x e3
        assert np.array_equal(builtin_field("upslope")(y), up)
        assert np.array_equal(builtin_field("horizontal")(y), level)
        assert np.array_equal(blend(y), unit(0.37 * up + (1.0 - 0.37) * level))


def test_lambda_3d_sign(fig_spec):
    assert lambda_3d(fig_spec, np.array([1.0, 0.0, 0.0])) == 0.0
    lam = lambda_3d(fig_spec, np.array([0.6, 0.0, -0.8]))
    assert lam == pytest.approx(0.8 * fig_spec.m * fig_spec.g / fig_spec.mu)


def test_cumulative_simpson_accuracy():
    h = 1e-3
    x = np.arange(0.0, 1.0 + h / 2, h)
    got = cumulative_simpson(np.sin(x), h)
    assert np.max(np.abs(got - (1.0 - np.cos(x)))) < 1e-12
    # exact pair rule on cubics at even indices
    got3 = cumulative_simpson(x**3, h)
    assert np.max(np.abs(got3[::2] - (x[::2] ** 4) / 4.0)) < 1e-15
    assert got.shape == x.shape
    assert cumulative_simpson(np.zeros((1, 3)), h).shape == (1, 3)


def test_integrate_upslope_basic(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 3.0 / fig_spec.a)
    assert not curve.stopped_early
    assert curve.s[0] == 0.0
    assert curve.s_end == pytest.approx(3.0 / fig_spec.a)
    # spherical image stays unit and inside the hemisphere
    norms = np.linalg.norm(curve.gamma, axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(curve.gamma[:, 2]) <= 1e-12
    assert curve.norm_drift_total < 1e-9
    # direction height follows the orbit through theta(0) = 0 exactly
    end = curve.gamma[-1]
    half = math.tan(fig_spec.delta / 2.0) * math.exp(-fig_spec.a * curve.s_end)
    theta_end = -fig_spec.delta + 2.0 * math.atan(half)
    assert end[2] == pytest.approx(math.sin(theta_end), abs=1e-9)


def test_integrate_validates_inputs(fig_spec):
    tf = builtin_field("upslope")
    with pytest.raises(ParameterError):
        integrate_ramp3d(fig_spec, tf, [0.0, 0.0, 1.0], 1.0)
    with pytest.raises(ParameterError):
        integrate_ramp3d(fig_spec, tf, [1.0, 0.0, 0.0], -2.0)
    with pytest.raises(ParameterError):
        integrate_ramp3d(fig_spec, tf, [1.0, 0.0, 0.0], 1.0, step=0.0)
    with pytest.raises(SingularFieldError):
        integrate_ramp3d(fig_spec, tf, [0.0, 0.0, -1.0], 1.0)


def test_integrate_rejects_broken_field(fig_spec):
    stretched = TangentField(
        name="stretched",
        eval=lambda y: 1.01 * np.asarray(builtin_field("upslope")(y)))
    with pytest.raises(ContractViolationError):
        integrate_ramp3d(fig_spec, stretched, [1.0, 0.0, 0.0], 1.0)
    radial = TangentField(name="radial", eval=lambda y: np.asarray(y, float))
    with pytest.raises(ContractViolationError):
        integrate_ramp3d(fig_spec, radial, [1.0, 0.0, 0.0], 1.0)
    # a NaN field used to pass the start check and fill gamma with NaN
    undefined = TangentField(name="nan", eval=lambda y: (math.nan,) * 3)
    with pytest.raises(ContractViolationError):
        integrate_ramp3d(fig_spec, undefined, [1.0, 0.0, 0.0], 1.0)


def test_integrate_stops_early_at_singularity(fig_spec):
    base = builtin_field("upslope")

    def eval_with_wall(y):
        if y[2] < -0.3:  # artificial singular set reachable from the start
            raise SingularFieldError("hit the wall", point=y)
        return base(y)

    tf = TangentField(name="walled", eval=eval_with_wall, singular_set="cap")
    curve = integrate_ramp3d(fig_spec, tf, [1.0, 0.0, 0.0], 10.0 / fig_spec.a)
    assert curve.stopped_early
    assert "wall" in curve.stop_reason
    assert curve.s_end < 10.0 / fig_spec.a
    assert curve.s.shape == curve.gamma.shape[:1] == curve.alpha.shape[:1]
    assert np.all(curve.gamma[:, 2] >= -0.3 - 1e-6)


def test_integrate_drops_sample_whose_slope_is_unknown(fig_spec):
    # the field fails on the first stage of step 10 (call 1 is the start
    # check, then four calls per step), so the slope at sample 10 is never
    # known and sample 10 must not be kept with an unset dgamma row
    base = builtin_field("horizontal")
    calls = [0]

    def eval_failing_once(y):
        calls[0] += 1
        if calls[0] == 2 + 4 * 10:
            raise SingularFieldError("singular here", point=y)
        return base(y)

    tf = TangentField(name="horizontal", eval=eval_failing_once)
    curve = integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], 1.0)
    assert curve.stopped_early
    assert curve.gamma.shape == curve.dgamma.shape == (10, 3)
    expect = np.stack([field_x(fig_spec, base, y) for y in curve.gamma])
    assert np.array_equal(curve.dgamma, expect)
    assert verify_3d(fig_spec, curve).verdict is Verdict.VALID


def test_integrate_evaluates_field_once_per_stage(fig_spec):
    # one start check, the slope at the start, then four RK4 stages per step
    base = builtin_field("horizontal")
    calls = [0]

    def counted(y):
        calls[0] += 1
        return base(y)

    tf = TangentField(name="horizontal", eval=counted)
    for s_max, step in ((1.0, 0.01), (2.0 / fig_spec.a, None)):
        calls[0] = 0
        curve = integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], s_max, step=step)
        n = curve.s.shape[0] - 1
        assert n > 0 and calls[0] == 4 * n + 2


def test_concurrent_integrations_match_sequential(fig_spec):
    # concurrent runs give the bits of sequential ones; a thread switch
    # every microsecond interleaves their steps as finely as it can, so any
    # state shared between runs would show in the bits
    starts = ([0.8, 0.0, -0.6], [0.0, 0.6, -0.8])
    jobs = [(builtin_field(kind), y0) for kind in ("upslope", "horizontal")
            for y0 in starts] + [(builtin_field("blend", 0.37), starts[0])]
    s_max = 1.0 / fig_spec.a
    expect = [integrate_ramp3d(fig_spec, tf, y0, s_max) for tf, y0 in jobs]
    results = [None] * len(jobs)

    def run(i):
        tf, y0 = jobs[i]
        results[i] = integrate_ramp3d(fig_spec, tf, y0, s_max)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expect):
        assert np.array_equal(got.gamma, want.gamma)
        assert np.array_equal(got.dgamma, want.dgamma)



# a short integration per built-in field, hashed in a child process
_DIGEST_CHILD = """
import hashlib
from rampforge import builtin_field, integrate_ramp3d, spec_from_mu
spec = spec_from_mu(0.5, g=9.81, v=5.0, m=1.0)
for kind in (("horizontal",), ("upslope",), ("blend", 0.37)):
    c = integrate_ramp3d(spec, builtin_field(*kind), [0.8, 0.0, -0.6], 1.0 / spec.a)
    h = hashlib.sha256()
    for a in (c.gamma, c.dgamma, c.alpha):
        h.update(a.tobytes())
    h.update(repr((c.norm_drift_total, c.norm_drift_max)).encode())
    print(kind[0], h.hexdigest())
"""

# OpenBLAS's run-time kernel choice and numpy's SIMD dispatch, each read
# only by the process it is set for
HOST_SETTINGS = ({}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"},
                 {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})


def test_3d_bits_do_not_depend_on_blas_kernel_or_simd_target():
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    base.get("PYTHONPATH")) if p)
    base["OPENBLAS_NUM_THREADS"] = "1"
    outputs = []
    for setting in HOST_SETTINGS:
        proc = subprocess.run([sys.executable, "-c", _DIGEST_CHILD],
                              env={**base, **setting}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs == [outputs[0]] * len(HOST_SETTINGS)


HORIZONTAL_STARTS = ([0.8, 0.0, -0.6], [0.0, 0.6, -0.8], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("y0", HORIZONTAL_STARTS)
def test_horizontal_flow_matches_its_closed_form(fig_spec, y0):
    # the closed form uses neither the field nor RK4
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"), y0, 5.0 / fig_spec.a)
    gamma, height = horizontal_closed_form(fig_spec, y0, curve.s)
    assert gamma.shape == curve.gamma.shape and height.shape == curve.s.shape
    assert np.abs(curve.gamma - gamma).max() <= 1e-9
    assert np.abs(curve.alpha[:, 2] - height).max() <= 1e-9


@pytest.mark.parametrize("y0", HORIZONTAL_STARTS)
def test_horizontal_flow_converges_at_fourth_order(fig_spec, y0):
    errs = []
    for step in (0.01, 0.005, 0.0025):
        curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"), y0,
                                 5.0 / fig_spec.a, step=step / fig_spec.a)
        gamma, _ = horizontal_closed_form(fig_spec, y0, curve.s)
        errs.append(np.abs(curve.gamma - gamma).max())
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.7 <= math.log2(coarse / fine) <= 4.3


def test_horizontal_closed_form_rejects_bad_starts(fig_spec):
    for bad in ([0.0, 0.0, -1.0], [0.6, 0.0, 0.8], [0.5, 0.0, 0.0], [math.nan, 0.0, 0.0]):
        with pytest.raises(ParameterError):
            horizontal_closed_form(fig_spec, bad, [0.0, 1.0])


def test_single_sample_curve_raises_parameter_error(fig_spec):
    # the field fails on the second stage of the first step, so only the
    # start sample has a known slope and the curve holds one sample
    base = builtin_field("horizontal")
    calls = [0]

    def eval_failing_third(y):
        calls[0] += 1
        if calls[0] == 3:
            raise SingularFieldError("singular here", point=y)
        return base(y)

    tf = TangentField(name="horizontal", eval=eval_failing_third)
    curve = integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], 1.0)
    assert curve.stopped_early and curve.s.shape == (1,)
    for use in (lambda: build_surface(curve, base),
                lambda: simulate(fig_spec, curve, (0.0, 1.0)),
                lambda: curve.position(0.0), lambda: curve.tangent(0.0),
                lambda: curve.derivative(0.0), lambda: verify_3d(fig_spec, curve)):
        with pytest.raises(ParameterError, match="fewer than 2 samples"):
            use()


def test_interpolants_match_grid_and_midpoints(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"),
                             [0.8, 0.0, -0.6], 2.0 / fig_spec.a)
    # exact on the stored nodes
    assert np.allclose(curve.position(curve.s[::7]), curve.alpha[::7], atol=1e-14)
    assert np.allclose(curve.tangent(curve.s[::7]), curve.gamma[::7], atol=1e-14)
    # between nodes the tangent should stay essentially unit
    mid = curve.s[:-1] + 0.5 * curve.step
    norms = np.linalg.norm(curve.tangent(mid[::11]), axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    # derivative interpolant reproduces the flow equation between nodes
    d = curve.derivative(mid[::11])
    expect = np.stack([field_x(fig_spec, curve.field, y)
                       for y in curve.tangent(mid[::11])])
    assert np.max(np.linalg.norm(d - expect, axis=-1)) < 1e-8


def test_position_derivative_consistency(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 2.0 / fig_spec.a)
    s = np.linspace(0.1, 1.9, 23) / fig_spec.a
    h = 1e-6
    num = (curve.position(s + h) - curve.position(s - h)) / (2.0 * h)
    assert np.max(np.linalg.norm(num - curve.tangent(s), axis=-1)) < 1e-8


def test_tangent_derivative_consistency(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"),
                             [0.8, 0.0, -0.6], 2.0 / fig_spec.a)
    s = np.linspace(0.1, 1.9, 23) / fig_spec.a
    h = 1e-6
    num = (curve.tangent(s + h) - curve.tangent(s - h)) / (2.0 * h)
    assert np.max(np.linalg.norm(num - curve.derivative(s), axis=-1)) < 1e-8


def test_build_surface_layout(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 1.0, step=0.01)
    surface = build_surface(curve, curve.field, r_extent=(-0.4, 0.2),
                            resolution=(30, 8))
    assert surface.resolution == (30, 8)
    assert surface.vertices.shape == (31, 9, 3)
    assert surface.vertex_normals.shape == (31, 3)
    assert surface.r_grid[0] == -0.4 and surface.r_grid[-1] == 0.2
    assert 0.0 in surface.r_grid  # center line is part of the mesh
    j0 = int(np.where(surface.r_grid == 0.0)[0][0])
    assert np.allclose(surface.vertices[:, j0, :],
                       curve.position(surface.s_grid), atol=1e-12)
    # rulings are orthogonal to both the path tangent and the contact normal
    tangents = curve.tangent(surface.s_grid)
    assert np.max(np.abs(np.einsum("ij,ij->i", surface.ruling, tangents))) < 1e-9
    assert np.max(np.abs(np.einsum("ij,ij->i", surface.ruling,
                                   surface.vertex_normals))) < 1e-9


def test_build_surface_validation(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 0.5, step=0.01)
    with pytest.raises(ParameterError):
        build_surface(curve, curve.field, r_extent=(0.5, -0.5))
    with pytest.raises(ParameterError):
        build_surface(curve, curve.field, resolution=(0, 4))


def test_scale_ramp_2d(fig_spec):
    ramp = lower_ramp(fig_spec)
    big = scale_ramp(ramp, 4.0)
    s = np.linspace(0.0, 3.0, 11)
    assert np.allclose(big.curve.position(4.0 * s), 4.0 * ramp.curve.position(s),
                       atol=1e-12)
    assert np.allclose(big.curve.tangent(4.0 * s), ramp.curve.tangent(s),
                       atol=1e-12)
    assert np.allclose(big.curve.second_derivative(4.0 * s),
                       ramp.curve.second_derivative(s) / 4.0, atol=1e-12)
    assert np.allclose(big.normal(4.0 * s), ramp.normal(s), atol=1e-12)
    assert big.metadata["scaled_by"] == 4.0
    assert big.metadata["equivalent_specs"]["speed_factor"] == 2.0
    assert big.metadata["equivalent_specs"]["gravity_factor"] == 0.25


def test_scale_ramp_2d_matches_rebuilt_spec():
    # dilating by kappa is the same curve as dividing a by kappa
    spec = spec_from_mu(0.5, v=5.0)
    kappa = 6.0
    equivalent = spec_from_mu(0.5, v=math.sqrt(kappa) * 5.0)
    assert equivalent.a == pytest.approx(spec.a / kappa, rel=1e-14)
    scaled = scale_ramp(lower_ramp(spec), kappa)
    rebuilt = lower_ramp(equivalent)
    s = np.linspace(0.0, 12.0, 25)
    assert np.allclose(scaled.curve.position(s), rebuilt.curve.position(s),
                       atol=1e-9)


def test_scale_ramp_3d(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 1.0, step=0.01)
    big = scale_ramp(curve, 2.0)
    assert big.s_end == pytest.approx(2.0 * curve.s_end)
    assert np.allclose(big.alpha, 2.0 * curve.alpha)
    assert np.allclose(big.gamma, curve.gamma)
    assert np.allclose(big.dgamma, curve.dgamma / 2.0)
    assert np.allclose(big.position(2.0 * curve.s[::5]),
                       2.0 * curve.position(curve.s[::5]), atol=1e-12)

    surface = build_surface(curve, curve.field, resolution=(10, 4))
    big_surface = scale_ramp(surface, 3.0)
    assert np.allclose(big_surface.vertices, 3.0 * surface.vertices)
    assert np.allclose(big_surface.vertex_normals, surface.vertex_normals)

    with pytest.raises(ParameterError):
        scale_ramp(curve, 0.0)
    with pytest.raises(ParameterError):
        scale_ramp(fig_spec, 2.0)  # not a geometry

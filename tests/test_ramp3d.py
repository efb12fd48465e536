import dataclasses
import hashlib
import json
import math
import os
import shutil
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
                       integrate_ramp3d, lambda_3d, lower_ramp, make_ramp,
                       planar_reduction_check, scale_ramp, simulate, spec_from_mu,
                       verify_3d, verify_scaling)
from rampforge import ode, ramp3d
from rampforge.ode import horizontal_closed_form
from conftest import NOT_POSITIVE

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


@pytest.mark.parametrize("y, ok", [
    ([1.0 + 1e-11, 0.0, 0.0], True), ([1.0 + 1e-9, 0.0, 0.0], False),   # NORM_TOL
    ([1.0, 0.0, 1e-13], True), ([1.0, 0.0, 1e-11], False),              # HEIGHT_TOL
])
def test_hemisphere_point_tolerances_at_their_edge(y, ok):
    # |y| - 1 and y3 each 10x inside or 10x past HEMISPHERE_NORM_TOL and
    # HEMISPHERE_HEIGHT_TOL
    if ok:
        assert hemisphere_point(y).tolist() == y
    else:
        with pytest.raises(ParameterError) as err:
            hemisphere_point(y)
        assert err.value.code == "hemisphere"


@pytest.mark.parametrize("scale, ok", [(1.0 + 1e-9, True), (1.0 + 1e-7, False)])
def test_field_start_check_at_its_edge(fig_spec, scale, ok):
    # a field whose N is off unit length by 10x less or 10x more than
    # FIELD_CHECK_TOL
    base = builtin_field("horizontal")
    tf = TangentField("scaled", lambda y: tuple(scale * c for c in base(y)))
    if ok:
        integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], 0.1 / fig_spec.a)
    else:
        with pytest.raises(ContractViolationError, match="does not return a unit tangent"):
            integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], 0.1 / fig_spec.a)


@pytest.mark.parametrize("distance, singular", [(1e-9, True), (1e-7, False)])
def test_singular_tolerance_at_its_edge(fig_spec, distance, singular):
    # a horizontal start 10x inside or 10x outside SINGULAR_TOL of the south
    # pole, the field's singular set; the distances are literals, so the pair
    # does not move with the constant
    y0 = [distance, 0.0, -1.0]
    if singular:
        with pytest.raises(SingularFieldError, match="'horizontal' is singular"):
            integrate_ramp3d(fig_spec, builtin_field("horizontal"), y0, 0.1 / fig_spec.a)
    else:  # it integrates, though the run may stop early
        curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"), y0, 0.1 / fig_spec.a)
        assert curve.gamma[0].tolist() == y0


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


def _same_run(spec, a, b):
    # a short integration of each field gives the same bits
    ca, cb = (integrate_ramp3d(spec, f, [0.8, 0.0, -0.6], 0.5 / spec.a) for f in (a, b))
    return all(np.array_equal(getattr(ca, k), getattr(cb, k))
               for k in ("gamma", "dgamma", "alpha"))


@pytest.mark.parametrize("kind, weight", [
    ("upslope", None), ("horizontal", None), ("blend", 0.0), ("blend", 1.0 / 3.0),
    ("blend", 0.37), ("blend", 1.0)])
def test_builtin_field_accepts_the_names_it_gives(fig_spec, kind, weight):
    field = builtin_field(kind, weight)
    again = builtin_field(field.name)
    assert again.name == field.name
    assert _same_run(fig_spec, again, field)


def test_builtin_field_names_are_read_in_any_case(fig_spec):
    upper, lower = builtin_field("Blend:0.5"), builtin_field("blend:0.5")
    assert upper.name == lower.name == "blend:0.5"
    assert _same_run(fig_spec, upper, lower)


@pytest.mark.parametrize("kind, weight", [
    ("blend:", None), ("blend:abc", None), ("blend:1.5", None), ("blend:nan", None),
    ("blend:0.5", 0.3), ("upslope:0.5", None), ("upslope:", None)])
def test_builtin_field_rejects_bad_names(kind, weight):
    with pytest.raises(ParameterError):
        builtin_field(kind, weight)


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


def _ring(y):
    # the horizontal field written by hand, singular on the axis
    rho = math.hypot(y[0], y[1])
    if rho < ramp3d.SINGULAR_TOL:
        raise SingularFieldError(f"field 'ring' is singular at {y}", point=y)
    return y[1] / rho, -y[0] / rho, 0.0


@pytest.mark.parametrize("tf", [builtin_field("upslope"), builtin_field("horizontal"),
                                builtin_field("blend", 0.37),
                                TangentField("ring", eval=_ring)], ids=lambda tf: tf.name)
def test_field_x_raises_near_the_pole(fig_spec, tf):
    # within SINGULAR_TOL of the south pole every field here is singular
    near = [3e-9, 4e-9, -1.0]
    with pytest.raises(SingularFieldError) as info:
        field_x(fig_spec, tf, near)
    assert info.value.point == near
    assert str(info.value) == f"field {tf.name!r} is singular at {near}"


@pytest.mark.parametrize("size", [2, 4, None])
def test_field_x_names_a_field_of_the_wrong_size(fig_spec, size):
    # size None: a bare float, which cannot be unpacked at all
    base = builtin_field("horizontal")
    tf = TangentField("lopsided", eval=lambda y: (
        1.0 if size is None else (list(base(y)) + [0.0])[:size]))
    with pytest.raises(ContractViolationError, match="field 'lopsided' must return 3 values"):
        field_x(fig_spec, tf, [0.8, 0.0, -0.6])


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


@pytest.mark.parametrize("bad_call", [
    pytest.param(2 + 4 * 9 + 1, id="b"), pytest.param(2 + 4 * 9 + 2, id="c"),
    pytest.param(2 + 4 * 9 + 3, id="d"), pytest.param(2 + 4 * 10, id="slope")])
def test_integrate_drops_sample_whose_slope_is_unknown(fig_spec, bad_call):
    # the field fails at stage b, c or d of step 10 or at the slope of
    # sample 10 that ends it (call 1 is the start check, call 2 the slope
    # at the start, then four calls per step), so the slope at sample 10 is
    # never known and sample 10 must not be kept with an unset dgamma row
    base = builtin_field("horizontal")
    calls = [0]

    def eval_failing_once(y):
        calls[0] += 1
        if calls[0] == bad_call:
            raise SingularFieldError("singular here", point=y)
        return base(y)

    tf = TangentField(name="horizontal", eval=eval_failing_once)
    curve = integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], 1.0)
    assert curve.stopped_early and calls[0] == bad_call
    assert curve.s.shape == (10,)
    assert curve.gamma.shape == curve.dgamma.shape == (10, 3)
    full = integrate_ramp3d(fig_spec, base, [0.8, 0.0, -0.6], 1.0)
    for name in ("s", "gamma", "dgamma"):
        assert np.array_equal(getattr(curve, name), getattr(full, name)[:10])
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


@pytest.mark.parametrize("kind", [("upslope",), ("horizontal",), ("blend", 0.37)])
def test_replaced_eval_is_called_per_stage(fig_spec, kind):
    # a built-in field with its eval replaced runs the new eval, not the
    # compiled built-in step, whatever else it keeps of the built-in field
    base = builtin_field(*kind)
    calls = [0]

    def counted(y):
        calls[0] += 1
        return base.eval(y)

    curve = integrate_ramp3d(fig_spec, dataclasses.replace(base, eval=counted),
                             [0.8, 0.0, -0.6], 1.0, step=0.01)
    n = curve.s.shape[0] - 1
    assert n > 0 and calls[0] == 4 * n + 2
    calls[0] = 0
    ramp3d.field_x(fig_spec, dataclasses.replace(base, eval=counted), [0.8, 0.0, -0.6])
    assert calls[0] == 1


def test_unhashable_eval_is_called(fig_spec):
    # an eval with no hash cannot be a built-in one; it is called, not looked up
    @dataclasses.dataclass
    class Horizontal:
        calls: int = 0

        def __call__(self, y):
            self.calls += 1
            return builtin_field("horizontal").eval(y)

    level = Horizontal()
    curve = integrate_ramp3d(fig_spec, TangentField("horizontal", eval=level),
                             [0.8, 0.0, -0.6], 1.0, step=0.01)
    assert level.calls == 4 * (curve.s.shape[0] - 1) + 2


@pytest.mark.parametrize("size", [2, 4, None])
@pytest.mark.parametrize("from_call", [1, 7])
def test_field_of_the_wrong_size_is_named(fig_spec, size, from_call):
    # call 1 is the start check, call 7 a stage of step 2; a wrong size used
    # to surface as an anonymous unpacking or numpy shape error, and a bare
    # float (size None) as an unpacking TypeError
    base = builtin_field("horizontal")
    calls = [0]

    def lopsided(y):
        calls[0] += 1
        n = list(base(y))
        if calls[0] < from_call:
            return n
        return 1.0 if size is None else (n + [0.0])[:size]

    tf = TangentField(name="lopsided", eval=lopsided)
    with pytest.raises(ContractViolationError, match="field 'lopsided' must return 3 values"):
        integrate_ramp3d(fig_spec, tf, [0.8, 0.0, -0.6], 1.0)
    assert calls[0] == from_call


@pytest.mark.parametrize("bad", ["abc", (1.0, 2.0, None), ("0.6", "0", "0.8"), (1j, 0.0, 0.0)],
                         ids=["str", "none", "strings", "complex"])
def test_field_of_non_numbers_is_named(fig_spec, bad):
    # three values that are not real numbers used to escape as a bare
    # TypeError, or from the start check's numpy norm as a ValueError; call
    # 1 is the start check, call 10 the slope at the end of step 2
    base = builtin_field("horizontal")
    for from_call in (1, 10):
        calls = [0]

        def odd(y):
            calls[0] += 1
            return base(y) if calls[0] < from_call else bad

        with pytest.raises(ContractViolationError, match="field 'odd' must return 3 values"):
            integrate_ramp3d(fig_spec, TangentField("odd", eval=odd), [0.8, 0.0, -0.6], 1.0)
        assert calls[0] == from_call
    with pytest.raises(ContractViolationError, match="field 'odd' must return 3 values"):
        field_x(fig_spec, TangentField("odd", eval=lambda y: bad), [0.8, 0.0, -0.6])


_HORIZONTAL = builtin_field("horizontal")
# fields that break the contract on every call, each off the horizontal field
BAD_FIELDS = {
    "pair": lambda y: _HORIZONTAL(y)[:2],
    "complex": lambda y: tuple(complex(c) for c in _HORIZONTAL(y)),
    "strings": lambda y: tuple(repr(c) for c in _HORIZONTAL(y)),
    "hole": lambda y: (*_HORIZONTAL(y)[:2], None),
    # three 1-element rows, each of which numpy 1 takes the float of
    "column": lambda y: np.array(_HORIZONTAL(y)).reshape(3, 1),
}
FIELD_READERS = {
    "integrate_ramp3d": lambda spec, curve: integrate_ramp3d(spec, curve.field,
                                                             curve.gamma[0], 0.1),
    "field_x": lambda spec, curve: field_x(spec, curve.field, curve.gamma[0]),
    "verify_3d": verify_3d,
    "simulate": lambda spec, curve: simulate(spec, curve, (0.0, 0.1)),
    "build_surface": lambda spec, curve: build_surface(curve, resolution=(8, 2)),
    "planar_reduction_check": planar_reduction_check,
}


@pytest.mark.parametrize("reader", FIELD_READERS)
@pytest.mark.parametrize("name", BAD_FIELDS)
def test_every_reader_of_a_field_holds_the_contract(fig_spec, name, reader):
    # a curve integrated with a good field, then given a bad one: a complex
    # field used to read Valid and give complex normals, a pair a surface
    # (np.cross pads it with 0), the others bare numpy errors; on numpy 1 a
    # column passed field_x but failed the other readers.  All now read the
    # field through code compiled from its one field block
    curve = integrate_ramp3d(fig_spec, _HORIZONTAL, [0.8, 0.0, -0.6], 1.0 / fig_spec.a)
    curve = dataclasses.replace(curve, field=TangentField(name, eval=BAD_FIELDS[name]))
    with pytest.raises(ContractViolationError, match=f"field '{name}' must return 3 values"):
        FIELD_READERS[reader](fig_spec, curve)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(min_value=0.05, max_value=0.95),
       v=st.floats(min_value=0.5, max_value=20.0), y0=interior,
       weight=st.floats(min_value=0.0, max_value=1.0))
def test_compiled_fields_match_their_eval_call_path(mu, v, y0, weight):
    # the same eval behind a wrapper takes the eval-call instantiation of
    # the step; both must give the same bits
    spec = spec_from_mu(mu, v=v)
    for tf in (builtin_field("upslope"), builtin_field("horizontal"),
               builtin_field("blend", weight)):
        custom = TangentField(tf.name, eval=lambda y, f=tf.eval: f(y),
                              singular_set=tf.singular_set)
        got = [integrate_ramp3d(spec, f, y0, 2.0 / spec.a, step=0.01 / spec.a)
               for f in (tf, custom)]
        for name in ("gamma", "dgamma", "alpha"):
            assert np.array_equal(getattr(got[0], name), getattr(got[1], name))
        for name in ("norm_drift_total", "norm_drift_max", "stop_reason"):
            assert getattr(got[0], name) == getattr(got[1], name)


@pytest.mark.parametrize("kind", [("upslope",), ("horizontal",), ("blend", 0.37)])
def test_compiled_step_raises_at_the_stage_point(fig_spec, kind):
    # no built-in run from the hemisphere reaches the pole, so drive one
    # compiled run from within SINGULAR_TOL of it: its slope at the start
    # evaluates the field there.  A renamed copy runs the same inline code
    # and raises, as its eval would, with the built-in name
    tf = builtin_field(*kind)
    drift = [0.0, 0.0]
    h = 1e-3
    run = ramp3d._bind(fig_spec, dataclasses.replace(tf, name="renamed"), drift, h)
    # the run compiled from the field's own component source, not reached
    # through _bind; rk4's arguments do not change the code of its run
    inline = ode._rk4_run(3, ramp3d._FLOW_PARAMS, ramp3d._stage(ramp3d._SOURCES[kind[0]]),
                          ramp3d._RENORMALIZE, singular=ramp3d._singular,
                          malformed=ramp3d._malformed)
    assert run.__code__ is inline(*[0.0] * 10).__code__
    wrapped = dataclasses.replace(tf, eval=lambda y, f=tf.eval: f(y))
    assert run.__code__ is not ramp3d._bind(fig_spec, wrapped, [0.0, 0.0], h).__code__
    near = [3e-9, 4e-9, -1.0]
    with pytest.raises(SingularFieldError) as info:
        run([0.0, h], near, np.empty((2, 3)), np.empty((2, 3)))
    assert info.value.point == near
    assert str(info.value) == f"field {tf.name!r} is singular at {near}"
    assert drift == [0.0, 0.0]


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


# a generated run and its arguments, run with array tables; imports no
# rampforge and no numpy, and prints the rows, the stop and the digest of
# the samples.  A run that calls a function gets it compiled here from the
# job's helper source, which defines `f`, and passed as its argument call_at.
# A job with points is the row reader of a built-in field's block: bound to
# the arguments, it reads all points in one call, a row of samples each.
_GENERATED_CHILD = """
import array, hashlib, json, math, sys

class SingularFieldError(Exception):
    pass

def singular(name, y):
    return SingularFieldError(f"field {name!r} is singular at {y}")

with open(sys.argv[1]) as f:
    job = json.load(f)
namespace = {"SingularFieldError": SingularFieldError, "ParameterError": ValueError,
             "sin": math.sin, "sqrt": math.sqrt, "singular": singular, "malformed": None}
exec(compile(job["source"] + job["helper"], "<generated>", "exec"), namespace)
args = job["args"]
if "points" in job:
    normals = namespace["bind"](*args)
    ys = array.array("d", [v for n in normals(job["points"]) for v in n])
    rows, stop = len(job["points"]), None
else:
    if job["call_at"] is not None:
        args[job["call_at"]] = namespace["f"]
    dim = len(job["y0"])
    ys, dys = (array.array("d", bytes(8 * dim * len(job["times"]))) for _ in range(2))
    rows, stop = namespace["rk4"](*args)(job["times"], job["y0"], ys, dys)
    ys = ys[:dim * rows]
print(json.dumps([rows, stop, hashlib.sha256(ys.tobytes()).hexdigest()]))
"""

# pure-Python functions for the runs that call one, each compiled from its
# source here and in the child: a level field, and an rhs per dimension
_EVAL_SOURCE = """\
def f(y):
    y1, y2, y3 = y
    r = sqrt(y2 * y2 + y1 * y1)
    if r < 1e-8:
        raise singular("custom", y)
    return y2 / r, -y1 / r, 0.0
"""
_RHS_SOURCES = {
    1: "def f(t, y):\n    return [-0.5 * y[0] + sin(t)]\n",
    2: "def f(t, y):\n    return [y[1], -y[0] - 0.1 * y[1]]\n",
    3: "def f(t, y):\n    return [y[1] * y[2], -y[0] * y[2], -0.51 * y[0] * y[1]]\n",
}
GENERATED_RUNS = ["blend:0.5", "upslope", "horizontal", "eval-call", "theta",
                  "fixed-d1", "fixed-d2", "fixed-d3",
                  "eval upslope", "eval horizontal", "eval blend:0.5"]
# the rows a built-in field's reader reads, from near the south pole,
# where it is singular, to above the equator
EVAL_POINTS = [[math.sin(a) * math.cos(b), math.sin(a) * math.sin(b), -math.cos(a)]
               for a in (0.3, 1.1, 1.6, 2.5) for b in (0.0, 2.0, 4.0)]


def _helper(source: str):
    namespace = {"sin": math.sin, "sqrt": math.sqrt, "singular": ramp3d._singular}
    exec(compile(source, "<helper>", "exec"), namespace)
    return namespace["f"]


def _generated_run(spec, run: str):
    """The job of one generated run for the child, and the samples the
    library gives for the same run."""
    if run.startswith("eval "):
        field = builtin_field(run[5:])
        kind, _, weight = run[5:].partition(":")
        w = float(weight or 0.0)
        job = {"source": ramp3d._reader_source(ramp3d._SOURCES[kind]), "helper": "",
               "args": [field.name, w, 1.0 - w, None], "points": EVAL_POINTS}
        return job, ramp3d._normals(field, EVAL_POINTS)
    if run.startswith("fixed-d"):
        d = int(run[-1])
        times, h = ode._grid(0.0, 2.0, 0.01)
        job = {"source": ode._rk4_source(d, *ode._CALL_RHS, ""),
               "helper": _RHS_SOURCES[d], "call_at": 0,  # rhs
               "args": [None, h, 0.5 * h, h / 6.0], "y0": [0.3, -0.2, 0.1][:d]}
        _, samples, _, _ = ode.integrate_fixed(_helper(_RHS_SOURCES[d]), job["y0"],
                                               0.0, 2.0, 0.01)
        return {**job, "times": times.tolist()}, samples
    s_max = 5.0 / spec.a
    times, h = ode._grid(0.0, s_max, ode.DEFAULT_STEP_FACTOR / spec.a)
    job = {"times": times.tolist(), "helper": "", "call_at": None}
    if run == "theta":
        job.update(source=ode._rk4_source(1, *ode._THETA, ""), y0=[0.5],
                   args=[spec.a, spec.delta, h, 0.5 * h, h / 6.0])
        return job, ode.integrate_theta(spec, 0.5, (0.0, s_max)).theta
    if run == "eval-call":
        field = TangentField("custom", eval=_helper(_EVAL_SOURCE))
        stage, w = ramp3d._stage(ramp3d._CALL_EVAL), 0.0
        job.update(helper=_EVAL_SOURCE, call_at=5)  # normal, of _FLOW_PARAMS
    else:
        field = builtin_field(run)
        kind, _, weight = run.partition(":")
        stage, w = ramp3d._stage(ramp3d._SOURCES[kind]), float(weight or 0.0)
    # the arguments ramp3d._bind passes the field's run
    job.update(source=ode._rk4_source(3, ramp3d._FLOW_PARAMS, stage, ramp3d._RENORMALIZE),
               y0=[0.8, 0.0, -0.6],
               args=[-(spec.g / (spec.v * spec.v)), spec.mu, field.name, w, 1.0 - w,
                     None, [0.0, 0.0], h, 0.5 * h, h / 6.0])
    return job, integrate_ramp3d(spec, field, job["y0"], s_max).gamma


def _other_pythons() -> list[str]:
    # the python3.10 ... python3.14 on PATH that start, other than this one
    found = []
    for minor in range(10, 15):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            proc = subprocess.run([exe, "-I", "-c", "import sys; print(sys.version)"],
                                  capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() != sys.version:
            found.append(exe)
    return found


@pytest.fixture(scope="module")
def other_pythons():
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other python3.10 ... python3.14 on PATH starts")
    return pythons


@pytest.mark.parametrize("run", GENERATED_RUNS)
def test_generated_run_gives_the_same_bits_on_other_interpreters(fig_spec, tmp_path,
                                                                 other_pythons, run):
    job, samples = _generated_run(fig_spec, run)
    (tmp_path / "job.json").write_text(json.dumps(job))
    (tmp_path / "child.py").write_text(_GENERATED_CHILD)
    want = [samples.shape[0], None, hashlib.sha256(samples.tobytes()).hexdigest()]
    for exe in other_pythons:
        proc = subprocess.run([exe, "-I", "child.py", "job.json"], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (exe, proc.stderr)
        assert json.loads(proc.stdout) == want, exe


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
    for use in (lambda: build_surface(curve),
                lambda: simulate(fig_spec, curve, (0.0, 1.0)),
                lambda: curve.position(0.0), lambda: curve.tangent(0.0),
                lambda: ode.hermite(curve.s, curve.gamma, curve.dgamma, 0.0)[1],
                lambda: verify_3d(fig_spec, curve)):
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
    d = ode.hermite(curve.s, curve.gamma, curve.dgamma, mid[::11])[1]
    expect = np.stack([field_x(fig_spec, curve.field, y)
                       for y in curve.tangent(mid[::11])])
    assert np.max(np.linalg.norm(d - expect, axis=-1)) < 1e-8


@pytest.mark.parametrize("read", ["position", "tangent"])
def test_interpolants_reject_arc_lengths_outside_the_curve(fig_spec, read):
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"),
                             [0.8, 0.0, -0.6], 1.0 / fig_spec.a)
    for s in (math.nan, curve.s[-1] + 0.5, -0.5, [0.5 * curve.s[-1], math.nan]):
        with pytest.raises(ParameterError, match="outside the integrated span"):
            getattr(curve, read)(s)


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
    slope = ode.hermite(curve.s, curve.gamma, curve.dgamma, s)[1]
    assert np.max(np.linalg.norm(num - slope, axis=-1)) < 1e-8


def test_build_surface_layout(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 1.0, step=0.01)
    surface = build_surface(curve, r_extent=(-0.4, 0.2), resolution=(30, 8))
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
        build_surface(curve, r_extent=(0.5, -0.5))
    with pytest.raises(ParameterError):
        build_surface(curve, resolution=(0, 4))


def test_strip_on_both_sides_of_zero_needs_two_cells(fig_spec):
    # one cell across such a strip used to drop its r < 0 half: the grid
    # was [0, r_max].  A one-sided strip takes one cell
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 0.5, step=0.01)
    for r_extent in ((-0.5, 0.5), (-1e-9, 1.0), (-1.0, 1e-9)):
        with pytest.raises(ParameterError, match="at least 2 cells"):
            build_surface(curve, r_extent=r_extent, resolution=(8, 1))
        r_grid = build_surface(curve, r_extent=r_extent, resolution=(8, 2)).r_grid
        assert r_grid.tolist() == [r_extent[0], 0.0, r_extent[1]]
    for r_extent in ((0.0, 0.5), (-0.5, 0.0)):
        r_grid = build_surface(curve, r_extent=r_extent, resolution=(8, 1)).r_grid
        assert r_grid.tolist() == list(r_extent)


@pytest.mark.parametrize("r_extent", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
def test_build_surface_rejects_non_finite_extent(fig_spec, r_extent):
    # an infinite end used to give nan/inf vertices or an uncaught ValueError
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 0.5, step=0.01)
    with pytest.raises(ParameterError, match="r_extent must be finite"):
        build_surface(curve, r_extent=r_extent)


def test_scale_ramp_2d(fig_spec):
    ramp = lower_ramp(fig_spec)
    big = scale_ramp(ramp, 4.0)
    s = np.linspace(0.0, 3.0, 11)
    assert np.allclose(big.position(4.0 * s), 4.0 * ramp.position(s),
                       atol=1e-12)
    assert np.allclose(big.tangent(4.0 * s), ramp.tangent(s),
                       atol=1e-12)
    assert np.allclose(big.second_derivative(4.0 * s),
                       ramp.second_derivative(s) / 4.0, atol=1e-12)
    assert np.allclose(big.normal(4.0 * s), ramp.normal(s), atol=1e-12)


@pytest.mark.parametrize("kappa", [0.25, 4.0, 6.0])
@pytest.mark.parametrize("branch", ["lower", "upper"])
def test_scale_ramp_2d_is_pinned_bit_for_bit(fig_spec, branch, kappa):
    # each evaluator of the dilated ramp is its operations in their order;
    # a reordered one, kappa * f(s * (1 / kappa)) say, moves the last bit
    ramp = make_ramp(fig_spec, branch)
    big = scale_ramp(ramp, kappa)
    s = np.linspace(0.0, 12.0, 97)
    assert np.array_equal(big.position(s), kappa * ramp.position(s / kappa))
    assert np.array_equal(big.tangent(s), ramp.tangent(s / kappa))
    assert np.array_equal(big.normal(s), ramp.normal(s / kappa))
    assert np.array_equal(big.second_derivative(s), ramp.second_derivative(s / kappa) / kappa)
    assert big.domain == (0.0, math.inf) and big.branch is ramp.branch


def test_scale_ramp_2d_matches_rebuilt_spec():
    # dilating by kappa is the same curve as dividing a by kappa
    spec = spec_from_mu(0.5, v=5.0)
    kappa = 6.0
    equivalent = spec_from_mu(0.5, v=math.sqrt(kappa) * 5.0)
    assert equivalent.a == pytest.approx(spec.a / kappa, rel=1e-14)
    scaled = scale_ramp(lower_ramp(spec), kappa)
    rebuilt = lower_ramp(equivalent)
    s = np.linspace(0.0, 12.0, 25)
    assert np.allclose(scaled.position(s), rebuilt.position(s),
                       atol=1e-9)


@pytest.mark.parametrize("value", NOT_POSITIVE)
def test_s_max_and_kappa_must_be_positive_and_finite(fig_spec, value):
    tf = builtin_field("upslope")
    with pytest.raises(ParameterError, match="s_max must be positive and finite"):
        integrate_ramp3d(fig_spec, tf, [1.0, 0.0, 0.0], value)
    curve = integrate_ramp3d(fig_spec, tf, [1.0, 0.0, 0.0], 0.5, step=0.05)
    ramp = lower_ramp(fig_spec)
    for geometry in (ramp, curve, build_surface(curve, resolution=(4, 2))):
        with pytest.raises(ParameterError, match="kappa must be positive and finite"):
            scale_ramp(geometry, value)
    for geometry in (ramp, curve):
        with pytest.raises(ParameterError, match="kappa must be positive and finite"):
            verify_scaling(fig_spec, geometry, value)


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

    surface = build_surface(curve, resolution=(10, 4))
    big_surface = scale_ramp(surface, 3.0)
    assert np.allclose(big_surface.vertices, 3.0 * surface.vertices)
    assert np.allclose(big_surface.vertex_normals, surface.vertex_normals)
    assert big_surface.vertex_normals is surface.vertex_normals
    assert big_surface.ruling is surface.ruling

    with pytest.raises(ParameterError):
        scale_ramp(curve, 0.0)
    with pytest.raises(ParameterError):
        scale_ramp(fig_spec, 2.0)  # not a geometry

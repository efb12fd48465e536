import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rampforge import (DELTA_MAX, ParameterError, make_spec, spec_from_mu, upper_ramp,
                       verify_scaling)
from conftest import NOT_POSITIVE

angles = st.floats(min_value=1e-3, max_value=DELTA_MAX - 1e-3)
positives = st.floats(min_value=1e-3, max_value=1e3)


def test_make_spec_derived_fields():
    spec = make_spec(0.3, g=9.81, v=2.0, m=1.5)
    assert spec.mu == pytest.approx(math.tan(0.3), rel=1e-15)
    assert spec.a == pytest.approx(9.81 / (4.0 * math.sin(0.3)), rel=1e-15)
    assert spec.delta == 0.3
    assert (spec.g, spec.v, spec.m) == (9.81, 2.0, 1.5)


def test_spec_from_mu_keeps_mu_verbatim():
    spec = spec_from_mu(0.5, v=5.0)
    assert spec.mu == 0.5
    assert spec.delta == math.atan(0.5)
    # same physics as the angle route, up to rounding
    other = make_spec(math.atan(0.5), v=5.0)
    assert spec.a == pytest.approx(other.a, rel=1e-14)


@pytest.mark.parametrize("delta", [0.0, -0.1, DELTA_MAX, math.pi / 2,
                                   math.nan, math.inf])
def test_angle_range_rejected(delta):
    with pytest.raises(ParameterError) as err:
        make_spec(delta)
    assert err.value.code == "angle_range"
    assert f"got delta = {delta!r}" in str(err.value)


# 0.9999999999999999 is below 1, but its atan rounds to DELTA_MAX itself
@pytest.mark.parametrize("mu", [0.0, -0.5, 1.0, 1.5, math.nan, math.inf, -math.inf,
                                0.9999999999999999])
def test_mu_range_rejected(mu):
    with pytest.raises(ParameterError) as err:
        spec_from_mu(mu)
    assert err.value.code == "angle_range"
    assert f"got mu = {mu!r}" in str(err.value)


def _largest_below_one(count):
    values = [math.nextafter(1.0, 0.0)]
    while len(values) < count:
        values.append(math.nextafter(values[-1], 0.0))
    return values


def _with_examples(values):
    def apply(test):
        for value in values:
            test = example(mu=value)(test)
        return test
    return apply


@settings(max_examples=100, deadline=None)
@given(mu=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@_with_examples(_largest_below_one(200))
def test_every_spec_from_mu_is_one_make_spec_accepts(mu):
    # both constructors hold delta to one rule, so a spec built from mu is
    # rebuilt from its delta and verified, unchanged, at kappa = 1
    try:
        spec = spec_from_mu(mu)
    except ParameterError as err:  # then make_spec refuses atan(mu) the same way
        with pytest.raises(ParameterError) as again:
            make_spec(math.atan(mu))
        assert again.value.code == err.code
        return
    assert make_spec(spec.delta).delta == spec.delta
    verify_scaling(spec, upper_ramp(spec), 1.0)


def test_largest_accepted_mu_scales():
    mu = math.nextafter(math.nextafter(1.0, 0.0), 0.0)
    assert mu == 0.9999999999999998
    spec = spec_from_mu(mu, v=5.0)
    result = verify_scaling(spec, upper_ramp(spec), 6.0)
    assert result.both_valid


@pytest.mark.parametrize("kwargs", [{"g": 0.0}, {"g": -9.81}, {"v": 0.0},
                                    {"m": -1.0}, {"v": math.nan},
                                    {"m": math.inf}]
                         + [{name: value} for name in "gvm" for value in NOT_POSITIVE])
def test_magnitudes_rejected(kwargs):
    with pytest.raises(ParameterError, match="must be positive and finite") as err:
        make_spec(0.3, **kwargs)
    assert err.value.code == "magnitude"


@pytest.mark.parametrize("build", [make_spec, spec_from_mu])
@pytest.mark.parametrize("kwargs", [{"v": 1e160}, {"g": 5e-324, "v": 1e3},
                                    {"v": 1e-160}, {"v": 1e-170}, {"g": 1e308, "v": 1e-5}])
def test_scale_without_finite_inverse_rejected(build, kwargs):
    # a = g / (v**2 sin(delta)) overflows to inf, underflows to 0, or
    # divides by a v**2 that underflows; each is an invalid spec, not a
    # ZeroDivisionError or a zero-length span downstream
    with pytest.raises(ParameterError, match="length scale a") as err:
        build(0.5, **kwargs)
    assert err.value.code == "magnitude"


def test_spec_is_frozen(fig_spec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        fig_spec.v = 10.0


@given(delta=angles, g=positives, v=positives, m=positives)
def test_derived_fields_consistent(delta, g, v, m):
    spec = make_spec(delta, g=g, v=v, m=m)
    assert 0.0 < spec.mu < 1.0
    assert spec.a > 0.0
    assert spec.a * v * v * math.sin(delta) == pytest.approx(g, rel=1e-12)
